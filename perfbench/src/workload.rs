//! The three workloads: catalog and engine set-up, the seeded query
//! stream, and one closed-loop step (one query, or one batch) with its
//! result check.

use crate::oracle::Oracle;
use crate::timed::TimedDevice;
use crate::trace::Tracer;
use adamant::core::fusion::fuse_graph;
use adamant::prelude::*;
use adamant::sched::estimate_footprint_bytes;
use adamant::sql::{binder, lower, parser, rewrite};
use adamant::storage::Rng;
use adamant::tpch;
use std::collections::BTreeMap;
use std::time::Instant;

/// TPC-H scale factor of every workload (60k lineitem rows).
pub(crate) const SCALE_FACTOR: f64 = 0.01;
/// Rows per streamed chunk.
const CHUNK_ROWS: usize = 1 << 13;
/// Setups per untraced run; `setup_s` is their median.
pub(crate) const SETUPS: usize = 5;
/// Residency budget per device on `plan_warm_resident`, above its working
/// set (the lineitem columns Q1 and Q6 read).
const WARM_RESIDENCY_BYTES: u64 = 64 << 20;
/// Residency budget per device on `sched_multi_tenant`, below its working
/// set, so the cache evicts more than it hits.
const SCHED_RESIDENCY_BYTES: u64 = 2 << 20;
/// Modeled deadline, from submission, of the deadline queries of a batch.
const SCHED_DEADLINE_NS: f64 = 26.0e6;
/// Tenants of `sched_multi_tenant` and their fair-share weights.
const TENANTS: [(&str, f64); 3] = [("gold", 2.0), ("silver", 1.0), ("bronze", 1.0)];
/// Queries of one `sched_multi_tenant` batch (each appears twice).
const SCHED_QUERIES: [TpchQuery; 6] = [
    TpchQuery::Q3,
    TpchQuery::Q4,
    TpchQuery::Q10,
    TpchQuery::Q14,
    TpchQuery::Q6,
    TpchQuery::Q12,
];
/// Distinct batch shapes of `sched_multi_tenant` (see [`batch_family`]).
const BATCH_SHAPES: usize = 7;

/// One of the benchmark's workloads (see `README.md` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Workload {
    SqlTpchCold,
    PlanWarmResident,
    SchedMultiTenant,
}

impl Workload {
    pub(crate) const ALL: [Workload; 3] = [
        Workload::SqlTpchCold,
        Workload::PlanWarmResident,
        Workload::SchedMultiTenant,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::SqlTpchCold => "sql_tpch_cold",
            Workload::PlanWarmResident => "plan_warm_resident",
            Workload::SchedMultiTenant => "sched_multi_tenant",
        }
    }

    pub(crate) fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The queries a round draws from, each once per round. Q6 appears
    /// twice on `plan_warm_resident` so that the median lies inside Q6's
    /// latencies and p90 inside Q1's, not on the edge between them.
    fn queries(self) -> &'static [TpchQuery] {
        match self {
            Workload::SqlTpchCold => &TpchQuery::ALL,
            Workload::PlanWarmResident => &[TpchQuery::Q1, TpchQuery::Q6, TpchQuery::Q6],
            Workload::SchedMultiTenant => &SCHED_QUERIES,
        }
    }

    /// Items of one round of the deck: the queries, or the batch shapes.
    fn deck_len(self) -> usize {
        match self {
            Workload::SchedMultiTenant => BATCH_SHAPES,
            _ => self.queries().len(),
        }
    }

    /// Steps in one warm-up pass: one round of single queries, or one batch.
    fn warmup_steps(self) -> usize {
        match self {
            Workload::SchedMultiTenant => 1,
            _ => self.queries().len(),
        }
    }

    fn devices(self) -> Vec<DeviceProfile> {
        match self {
            Workload::SchedMultiTenant => vec![
                DeviceProfile::cuda_rtx2080ti().with_memory(8 << 20, 4 << 20),
                DeviceProfile::openmp_cpu_i7().with_memory(32 << 20, 8 << 20),
            ],
            _ => vec![DeviceProfile::cuda_rtx2080ti()],
        }
    }

    fn residency_bytes(self) -> Option<u64> {
        match self {
            Workload::SqlTpchCold => None,
            Workload::PlanWarmResident => Some(WARM_RESIDENCY_BYTES),
            Workload::SchedMultiTenant => Some(SCHED_RESIDENCY_BYTES),
        }
    }
}

/// Fisher–Yates shuffle driven by the benchmark's own seeded stream.
fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Draws items uniformly without replacement in rounds, so every round
/// holds each item once and the mix stays balanced however long the run.
struct Deck<T> {
    rng: Rng,
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(seed: u64, items: Vec<T>) -> Self {
        Deck {
            rng: Rng::new(seed ^ 0x5EED_0F0E_DEC0_0001),
            next: items.len(),
            items,
        }
    }

    fn draw(&mut self) -> T {
        if self.next == self.items.len() {
            shuffle(&mut self.rng, &mut self.items);
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// One `sched_multi_tenant` batch: the queries in submission order, each
/// query's tenant (an index into [`TENANTS`]) and whether it has a deadline.
struct BatchShape {
    queries: Vec<TpchQuery>,
    tenants: Vec<usize>,
    deadlines: Vec<bool>,
}

/// The batches `sched_multi_tenant` cycles through. Batch wall time depends
/// strongly on the submission order and on who gets a deadline (from 0.7
/// to 1.1 s), so every seed runs the same shapes, in its own order, rather
/// than drawing fresh ones: otherwise the run's p90 would mostly measure
/// which shapes the seed happened to draw.
fn batch_family() -> Vec<BatchShape> {
    let mut rng = Rng::new(0xBA7C_4000_0000_0001);
    let n = 2 * SCHED_QUERIES.len();
    (0..BATCH_SHAPES)
        .map(|_| {
            let mut queries = [SCHED_QUERIES, SCHED_QUERIES].concat();
            shuffle(&mut rng, &mut queries[..n / 2]);
            shuffle(&mut rng, &mut queries[n / 2..]);
            let mut tenants: Vec<usize> = (0..n).map(|i| i % TENANTS.len()).collect();
            shuffle(&mut rng, &mut tenants);
            let mut deadlines: Vec<bool> = (0..n).map(|i| i < n / 3).collect();
            shuffle(&mut rng, &mut deadlines);
            BatchShape {
                queries,
                tenants,
                deadlines,
            }
        })
        .collect()
}

/// Σ of the `ExecutionStats` fields the per-layer report uses.
#[derive(Clone, Copy, Default)]
pub(crate) struct ExecTotals {
    pub(crate) transfer_ns: f64,
    pub(crate) compute_ns: f64,
    pub(crate) other_ns: f64,
    pub(crate) chunks: u64,
    pub(crate) nodes_fused: u64,
    pub(crate) elided_bytes: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) evictions: u64,
    pub(crate) pinned_bytes: u64,
    pub(crate) saved_transfer_ns: f64,
}

impl ExecTotals {
    fn add(&mut self, s: &ExecutionStats) {
        self.transfer_ns += s.transfer_ns;
        self.compute_ns += s.compute_ns;
        self.other_ns += s.other_ns;
        self.chunks += s.chunks_processed as u64;
        self.nodes_fused += s.nodes_fused as u64;
        self.elided_bytes += s.intermediates_elided_bytes;
        self.hits += s.cache_hits as u64;
        self.misses += s.cache_misses as u64;
        self.evictions += s.cache_evictions as u64;
        self.pinned_bytes += s.cache_pinned_bytes;
        self.saved_transfer_ns += s.cache_saved_transfer_ns;
    }
}

impl std::ops::AddAssign<&ExecTotals> for ExecTotals {
    fn add_assign(&mut self, o: &ExecTotals) {
        self.transfer_ns += o.transfer_ns;
        self.compute_ns += o.compute_ns;
        self.other_ns += o.other_ns;
        self.chunks += o.chunks;
        self.nodes_fused += o.nodes_fused;
        self.elided_bytes += o.elided_bytes;
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.pinned_bytes += o.pinned_bytes;
        self.saved_transfer_ns += o.saved_transfer_ns;
    }
}

/// Σ of the `SchedulerStats` values the per-layer report uses
/// (`max_queue_depth` is a maximum).
#[derive(Clone, Copy, Default)]
pub(crate) struct SchedTotals {
    pub(crate) batches: u64,
    pub(crate) admitted: u64,
    pub(crate) held: u64,
    pub(crate) slices: u64,
    pub(crate) preemptions: u64,
    pub(crate) max_queue_depth: u64,
    pub(crate) wait_ns: f64,
    pub(crate) share_err_sum: f64,
}

impl std::ops::AddAssign<&SchedTotals> for SchedTotals {
    fn add_assign(&mut self, o: &SchedTotals) {
        self.batches += o.batches;
        self.admitted += o.admitted;
        self.held += o.held;
        self.slices += o.slices;
        self.preemptions += o.preemptions;
        self.max_queue_depth = self.max_queue_depth.max(o.max_queue_depth);
        self.wait_ns += o.wait_ns;
        self.share_err_sum += o.share_err_sum;
    }
}

/// What one step (one query, or one batch) did.
#[derive(Default)]
pub(crate) struct Step {
    /// The query, when the step ran one.
    pub(crate) query: Option<TpchQuery>,
    /// Wall ns from the first call to checked rows.
    pub(crate) wall_ns: u64,
    pub(crate) queries: usize,
    pub(crate) wrong: usize,
    pub(crate) modeled_ns: f64,
    pub(crate) makespan_ns: f64,
    pub(crate) deadline_submitted: usize,
    pub(crate) deadline_missed: usize,
    /// Deterministic statistics of the step, compared across the untraced
    /// and traced runs.
    pub(crate) fingerprint: String,
    pub(crate) exec: ExecTotals,
    pub(crate) sched: SchedTotals,
}

/// Removes the `wall_ns` member from a stats JSON object: everything else
/// in it is modeled, hence deterministic.
fn without_wall(json: &str) -> String {
    let key = "\"wall_ns\":";
    match json.find(key) {
        Some(i) => {
            let tail = &json[i + key.len()..];
            let end = tail.find([',', '}']).unwrap_or(tail.len());
            let skip = if tail[end..].starts_with(',') {
                end + 1
            } else {
                end
            };
            format!("{}{}", &json[..i], &tail[skip..])
        }
        None => json.to_string(),
    }
}

fn span<T>(tr: Option<&Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// A set-up workload: catalog, engine and the seeded query stream.
pub(crate) struct Bench<'o> {
    workload: Workload,
    catalog: Catalog,
    engine: Adamant,
    oracle: &'o Oracle,
    plans: BTreeMap<&'static str, PrimitiveGraph>,
    /// Draws an index into `workload.queries()`, or into `batches`.
    deck: Deck<usize>,
    batches: Vec<BatchShape>,
}

/// Set-up wall times of one setup.
pub(crate) struct SetupTimes {
    pub(crate) generate_s: f64,
    pub(crate) total_s: f64,
}

impl<'o> Bench<'o> {
    /// Generates the catalog, builds the engine (devices wrapped in
    /// [`TimedDevice`] when `tracer` is given) and runs one warm-up pass.
    /// Returns the bench, its set-up times and the wrong warm-up results.
    pub(crate) fn setup(
        workload: Workload,
        seed: u64,
        tracer: Option<&Tracer>,
        oracle: &'o Oracle,
    ) -> (Bench<'o>, SetupTimes, usize) {
        let t0 = Instant::now();
        let catalog = TpchGenerator::new(SCALE_FACTOR, seed).generate();
        let generate_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let mut builder = Adamant::builder().chunk_rows(CHUNK_ROWS);
        for (i, profile) in workload.devices().into_iter().enumerate() {
            builder = match tracer {
                Some(t) => {
                    let dev = profile.build(DeviceId(i as u32));
                    builder.custom_device(Box::new(TimedDevice::new(Box::new(dev), t.clone())))
                }
                None => builder.device(profile),
            };
        }
        if let Some(bytes) = workload.residency_bytes() {
            builder = builder.residency_cache(ResidencyConfig::new(bytes));
        }
        let engine = builder.build().expect("engine builds from its profiles");
        let dev = engine.device_ids()[0];
        let plans = match workload {
            Workload::SqlTpchCold => BTreeMap::new(),
            _ => workload
                .queries()
                .iter()
                .map(|q| {
                    let graph = q.plan(dev, &catalog).expect("hand-built plan");
                    (q.name(), graph)
                })
                .collect(),
        };
        let batches = match workload {
            Workload::SchedMultiTenant => batch_family(),
            _ => Vec::new(),
        };
        let mut bench = Bench {
            workload,
            catalog,
            engine,
            oracle,
            plans,
            deck: Deck::new(seed, (0..workload.deck_len()).collect()),
            batches,
        };
        let wrong = (0..workload.warmup_steps())
            .map(|_| bench.step(None).wrong)
            .sum();
        let total_s = generate_s + t1.elapsed().as_secs_f64();
        (
            bench,
            SetupTimes {
                generate_s,
                total_s,
            },
            wrong,
        )
    }

    pub(crate) fn step(&mut self, tr: Option<&Tracer>) -> Step {
        match self.workload {
            Workload::SqlTpchCold => self.step_sql(tr),
            Workload::PlanWarmResident => self.step_plan(tr),
            Workload::SchedMultiTenant => self.step_batch(tr),
        }
    }

    /// Times the layer calls a step makes out of sight of the benchmark,
    /// each in a root span of its own, outside the step's root span: the
    /// SQL compile of the query's text and the fusion pass on every
    /// workload, plus the input binding and footprint estimate where the
    /// step does not make them in the open. On `sql_tpch_cold` these are
    /// the calls `Session::sql` makes inside; elsewhere they run beside the
    /// timed path.
    fn probe(&self, tr: &Tracer, query: TpchQuery) {
        let text = tpch::sql::text(query);
        let dev = self.engine.device_ids()[0];
        let stmt = tr.span("sql.parse", || parser::parse(text)).expect("parse");
        let mut bound = tr
            .span("sql.bind", || binder::bind(&stmt, &self.catalog))
            .expect("bind");
        tr.span("sql.rewrite", || rewrite::rewrite(&mut bound))
            .expect("rewrite");
        let compiled = tr
            .span("sql.lower", || lower::lower(&bound, dev))
            .expect("lower");
        let graph = match self.plans.get(query.name()) {
            Some(g) => g.clone(),
            None => compiled.graph,
        };
        if self.workload != Workload::SchedMultiTenant {
            let inputs = if self.workload == Workload::SqlTpchCold {
                tr.span("tpch.bind", || query.bind(&self.catalog))
            } else {
                query.bind(&self.catalog)
            }
            .expect("bind inputs");
            tr.span("sched.estimate_footprint", || {
                estimate_footprint_bytes(&graph, &inputs, CHUNK_ROWS)
            });
        }
        let mut fused = graph;
        tr.span("core.fuse_graph", || fuse_graph(&mut fused));
    }

    fn step_sql(&mut self, tr: Option<&Tracer>) -> Step {
        let query = self.workload.queries()[self.deck.draw()];
        if let Some(t) = tr {
            self.probe(t, query);
        }
        let mut step = Step {
            query: Some(query),
            queries: 1,
            ..Step::default()
        };
        let t0 = Instant::now();
        span(tr, "bench.query", || {
            let res = span(tr, "core.session_sql", || {
                Session::new(&mut self.engine, &self.catalog).sql(tpch::sql::text(query))
            });
            span(tr, "bench.check", || match res {
                Ok(rs) => {
                    if !self.oracle.check_sql(query, &rs.rows) {
                        step.wrong += 1;
                    }
                    step.modeled_ns = rs.stats.total_ns;
                    step.makespan_ns = rs.finish_ns;
                    step.exec.add(&rs.stats);
                    step.sched.wait_ns = rs.wait_ns;
                    step.fingerprint = format!(
                        "{} wait={} finish={}",
                        without_wall(&rs.stats.to_json()),
                        rs.wait_ns,
                        rs.finish_ns
                    );
                }
                Err(e) => {
                    eprintln!("{query}: {e}");
                    step.wrong += 1;
                    step.fingerprint = e.to_string();
                }
            })
        });
        step.wall_ns = t0.elapsed().as_nanos() as u64;
        step
    }

    fn step_plan(&mut self, tr: Option<&Tracer>) -> Step {
        let query = self.workload.queries()[self.deck.draw()];
        if let Some(t) = tr {
            self.probe(t, query);
        }
        let mut step = Step {
            query: Some(query),
            queries: 1,
            ..Step::default()
        };
        let graph = &self.plans[query.name()];
        let t0 = Instant::now();
        span(tr, "bench.query", || {
            let inputs = span(tr, "tpch.bind", || query.bind(&self.catalog)).expect("bind");
            let res = span(tr, "core.run", || {
                self.engine
                    .run(graph, &inputs, ExecutionModel::FourPhasePipelined)
            });
            span(tr, "bench.check", || match res {
                Ok((out, stats)) => {
                    if !self.oracle.check_plan(query, &self.catalog, &out) {
                        step.wrong += 1;
                    }
                    step.modeled_ns = stats.total_ns;
                    step.makespan_ns = stats.total_ns;
                    step.exec.add(&stats);
                    step.fingerprint = without_wall(&stats.to_json());
                }
                Err(e) => {
                    eprintln!("{query}: {e}");
                    step.wrong += 1;
                    step.fingerprint = e.to_string();
                }
            })
        });
        step.wall_ns = t0.elapsed().as_nanos() as u64;
        step
    }

    fn step_batch(&mut self, tr: Option<&Tracer>) -> Step {
        let shape = &self.batches[self.deck.draw()];
        let (queries, tenants, deadlines) = (
            shape.queries.clone(),
            shape.tenants.clone(),
            shape.deadlines.clone(),
        );
        let n = queries.len();
        if let Some(t) = tr {
            for &q in &queries {
                self.probe(t, q);
            }
        }

        let mut step = Step {
            queries: n,
            deadline_submitted: n / 3,
            ..Step::default()
        };
        let t0 = Instant::now();
        span(tr, "bench.batch", || {
            let mut specs = Vec::with_capacity(n);
            for (i, &q) in queries.iter().enumerate() {
                let inputs = span(tr, "tpch.bind", || q.bind(&self.catalog)).expect("bind");
                let graph = &self.plans[q.name()];
                let footprint = span(tr, "sched.estimate_footprint", || {
                    estimate_footprint_bytes(graph, &inputs, CHUNK_ROWS)
                });
                let mut spec = QuerySpec::new(graph.clone(), inputs, ExecutionModel::Chunked)
                    .with_footprint(footprint);
                if deadlines[i] {
                    spec = spec.with_deadline_ns(SCHED_DEADLINE_NS);
                }
                specs.push(spec);
            }
            let mut session = self.engine.session();
            for (name, weight) in TENANTS {
                session.tenant(name, weight);
            }
            let tickets: Vec<QueryTicket> = specs
                .into_iter()
                .enumerate()
                .map(|(i, spec)| session.submit(TENANTS[tenants[i]].0, spec))
                .collect();
            let report = span(tr, "core.run_all", || session.run_all());
            drop(session);
            span(tr, "bench.check", || {
                let mut prints = Vec::with_capacity(n + 1);
                for (i, ticket) in tickets.iter().enumerate() {
                    match report.outcome(*ticket) {
                        Some(QueryOutcome::Completed {
                            output,
                            stats,
                            wait_ns,
                            finish_ns,
                            missed_deadline,
                        }) => {
                            if !self.oracle.check_plan(queries[i], &self.catalog, output) {
                                step.wrong += 1;
                            }
                            if *missed_deadline {
                                step.deadline_missed += 1;
                            }
                            step.modeled_ns += stats.total_ns;
                            step.exec.add(stats);
                            prints.push(format!(
                                "{} wait={wait_ns} finish={finish_ns}",
                                without_wall(&stats.to_json())
                            ));
                        }
                        other => {
                            eprintln!("{}: not completed: {other:?}", queries[i]);
                            step.wrong += 1;
                            if deadlines[i] {
                                step.deadline_missed += 1;
                            }
                            prints.push(format!("{other:?}"));
                        }
                    }
                }
                let s = report.stats();
                step.makespan_ns = s.makespan_ns;
                step.sched = sched_totals(s);
                prints.push(without_wall(&s.to_json()));
                step.fingerprint = prints.join("\n");
            })
        });
        step.wall_ns = t0.elapsed().as_nanos() as u64;
        step
    }

    /// The residency budget against the working set, in bytes, from
    /// `TpchQuery::input_bytes`.
    pub(crate) fn working_set_note(&self) -> Option<String> {
        let budget = self.workload.residency_bytes()?;
        let mut queries = self.workload.queries().to_vec();
        queries.sort_by_key(|q| q.name());
        queries.dedup();
        let mut columns: Vec<&(&str, &str)> =
            queries.iter().flat_map(|q| q.input_columns()).collect();
        columns.sort();
        columns.dedup();
        let union: u64 = columns
            .iter()
            .map(|(t, c)| {
                let column = self.catalog.table(t).and_then(|t| t.column(c));
                column.map_or(0, |c| c.byte_len() as u64)
            })
            .sum();
        let each: Vec<String> = queries
            .iter()
            .map(|q| format!("{q} {}", q.input_bytes(&self.catalog).unwrap_or(0)))
            .collect();
        Some(format!(
            "residency budget {budget} bytes per device; working set {union} bytes \
             (distinct input columns; TpchQuery::input_bytes: {})",
            each.join(", ")
        ))
    }

    /// Drops the residency cache and reports whether every device pool,
    /// pinned pool and admission reservation is back to zero.
    pub(crate) fn leak_free(&mut self) -> bool {
        self.engine.executor_mut().clear_residency();
        let ids = self.engine.device_ids().to_vec();
        ids.iter().all(|&id| {
            let pool = self
                .engine
                .executor()
                .devices()
                .get(id)
                .expect("plugged device")
                .pool();
            pool.used() == 0 && pool.pinned_used() == 0 && pool.admission_reserved() == 0
        })
    }
}

fn sched_totals(s: &SchedulerStats) -> SchedTotals {
    let weight: f64 = s.tenants.values().map(|t| t.weight).sum();
    let contended: f64 = s.tenants.values().map(|t| t.contended_run_ns).sum();
    let share_err = if contended > 0.0 && weight > 0.0 {
        s.tenants
            .values()
            .map(|t| (t.contended_run_ns / contended - t.weight / weight).abs())
            .fold(0.0, f64::max)
    } else {
        0.0
    };
    SchedTotals {
        batches: 1,
        admitted: s.admitted,
        held: s.held,
        slices: s.slices,
        preemptions: s.preemptions,
        max_queue_depth: s
            .tenants
            .values()
            .map(|t| t.max_queue_depth as u64)
            .max()
            .unwrap_or(0),
        wait_ns: s.tenants.values().map(|t| t.wait_ns).sum(),
        share_err_sum: share_err,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_ns_is_removed_wherever_it_sits() {
        assert_eq!(
            without_wall(r#"{"a":1,"wall_ns":123,"b":2}"#),
            r#"{"a":1,"b":2}"#
        );
        assert_eq!(without_wall(r#"{"a":1,"wall_ns":123}"#), r#"{"a":1,}"#);
        assert_eq!(without_wall(r#"{"a":1}"#), r#"{"a":1}"#);
    }

    #[test]
    fn every_round_of_the_deck_holds_each_query_once() {
        let mut deck = Deck::new(42, TpchQuery::ALL.to_vec());
        for _ in 0..5 {
            let mut round: Vec<&str> = (0..7).map(|_| deck.draw().name()).collect();
            round.sort_unstable();
            let mut all: Vec<&str> = TpchQuery::ALL.iter().map(|q| q.name()).collect();
            all.sort_unstable();
            assert_eq!(round, all);
        }
        let order = |seed| {
            let mut d = Deck::new(seed, TpchQuery::ALL.to_vec());
            (0..14).map(|_| d.draw().name()).collect::<Vec<_>>()
        };
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
    }
}
