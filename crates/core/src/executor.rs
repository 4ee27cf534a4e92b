//! The query executor: binds a primitive graph to devices and runs it under
//! an execution model.
//!
//! One engine implements all five models (paper §IV), parameterized by
//! [`crate::models::ModelConfig`]: operator-at-a-time places
//! whole inputs; the chunked family streams scan chunks through each
//! pipeline, optionally staging in pinned memory (4-phase) and optionally
//! overlapping the copy with compute on a real transfer thread synchronized
//! by `fetched_until`/`processed_until` counters (Algorithm 2).

use crate::checkpoint::{CheckpointConfig, QueryCheckpoint};
use crate::error::{classify, ExecError, FailureClass, Result};
use crate::graph::{DataRef, NodeId, PrimitiveGraph, PrimitiveNode};
use crate::hub::{DataTransferHub, HostAccum};
pub use crate::inputs::QueryInputs;
use crate::models::{ExecutionModel, ModelConfig};
use crate::pipeline::{Pipeline, PipelineSet};
use crate::residency::{ResidencyCache, ResidencyConfig};
use crate::result::{OutputData, QueryOutput};
use crate::stats::ExecutionStats;
use crate::timeline::{overlapped_makespan, ChunkCost};
use adamant_device::buffer::{BufferData, BufferId};
use adamant_device::clock::Lane;
use adamant_device::device::{Device, DeviceId};
use adamant_device::health::{DeviceHealthRegistry, FailureVerdict, HealthPolicy};
use adamant_device::kernel::ExecuteSpec;
use adamant_device::profiles::DeviceProfile;
use adamant_device::registry::DeviceRegistry;
use adamant_task::primitive::PrimitiveKind;
use adamant_task::registry::TaskRegistry;
use adamant_task::semantics::DataSemantic;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExecutorConfig {
    /// Rows per chunk for the chunked execution models (the paper uses
    /// 2^25 four-byte values; scale together with your data).
    pub chunk_rows: usize,
    /// How the executor recovers from device faults mid-query.
    pub retry: RetryPolicy,
    /// Simulated-timeline budget per query, in modeled nanoseconds. The
    /// streaming loops check it between chunks and the recovery loop before
    /// each attempt; exceeding it unwinds the attempt like the OOM path and
    /// returns [`ExecError::DeadlineExceeded`]. `None` disables the check.
    pub deadline_ns: Option<f64>,
    /// Straggler watchdog: a streamed chunk whose modeled duration exceeds
    /// this multiple of its fault-free cost-model expectation trips the
    /// watchdog — the overrun is fed to the health registry's latency
    /// tracking, and a hedged duplicate of the chunk is raced on the best
    /// alternate device (first completion wins; the loser's allocations are
    /// reclaimed). `None` disables watchdogs and hedging.
    pub watchdog_multiplier: Option<f64>,
    /// Partial-progress checkpoints: when enabled, the executor snapshots
    /// query progress at pipeline-breaker and chunk-interval boundaries and
    /// heavyweight recovery (device death, exhausted retries) resumes from
    /// the last validated snapshot instead of restarting from row 0.
    pub checkpoints: CheckpointConfig,
    /// Whether the fusion pass rewrites eligible primitive chains into fused
    /// nodes before pipeline splitting (DESIGN.md §16). On by default;
    /// results are reference-exact either way.
    pub fusion: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            chunk_rows: 1 << 20,
            retry: RetryPolicy::default(),
            deadline_ns: None,
            watchdog_multiplier: Some(3.0),
            checkpoints: CheckpointConfig::default(),
            fusion: true,
        }
    }
}

/// Recovery policy for pipeline execution.
///
/// A failed pipeline attempt is rolled back (buffers freed, partial host
/// accumulations discarded) and retried according to the error class:
///
/// * device out-of-memory → the streaming chunk size is halved before the
///   retry (down to [`RetryPolicy::min_chunk_rows`]);
/// * a kernel that fails twice in a row on the same device → the
///   pipeline's nodes on that device are re-placed onto another device
///   with the primitive installed;
/// * a transfer that fails checksum verification through the whole
///   retransmit budget → immediate re-placement;
/// * a missing implementation → immediate re-placement (or the original
///   error when no capable device exists).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per pipeline, including the first (so 1 disables
    /// recovery entirely).
    pub max_attempts: usize,
    /// Smallest chunk size the out-of-memory backoff will reach.
    pub min_chunk_rows: usize,
    /// After this many consecutive successful chunks at a backed-off size,
    /// the streaming chunk size doubles back toward the configured
    /// `chunk_rows` (never above it). `0` disables regrowth.
    pub regrow_after_chunks: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            min_chunk_rows: 1,
            regrow_after_chunks: 4,
        }
    }
}

/// Cooperative cancellation token for [`Executor::run_with_cancel`].
///
/// Clone it, hand one copy to the run and keep the other; calling
/// [`CancelToken::cancel`] from anywhere (another thread, a timeout watcher)
/// makes the run unwind at its next between-chunks check and return
/// [`ExecError::Cancelled`] with all buffers released.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<std::sync::atomic::AtomicBool>,
}

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation (idempotent, callable from any thread).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Deterministic chunk-size schedule for one streaming attempt.
///
/// A failed chunk unwinds the whole attempt, so every chunk an attempt
/// processes succeeded and "after K consecutive successful chunks" is a
/// pure function of the chunk index: starting from a (possibly backed-off)
/// `start`, the size doubles every `regrow_after` chunks, capped at the
/// configured size. The transfer thread and the execute thread evaluate
/// the same schedule independently — no shared mutable size — so chunk
/// boundaries, and every stat derived from them, are identical under any
/// thread interleaving.
#[derive(Clone, Copy)]
struct ChunkSchedule {
    start: usize,
    configured: usize,
    regrow_after: usize,
}

impl ChunkSchedule {
    /// Rows for the `chunk`-th (0-based) chunk of the attempt.
    fn rows_for(&self, chunk: usize) -> usize {
        let mut size = self.start.max(1);
        if self.regrow_after == 0 {
            return size;
        }
        for _ in 0..(chunk / self.regrow_after) {
            if size >= self.configured {
                break;
            }
            size = (size * 2).min(self.configured);
        }
        size
    }

    /// True when `chunk` is the first chunk of a regrown group (each
    /// doubling is counted once, and only if a chunk actually runs at the
    /// new size).
    fn regrows_at(&self, chunk: usize) -> bool {
        chunk > 0 && self.rows_for(chunk) > self.rows_for(chunk - 1)
    }
}

/// The ADAMANT executor: plugged devices + task registry + configuration,
/// plus the cross-query [`DeviceHealthRegistry`] that feeds placement.
pub struct Executor {
    devices: DeviceRegistry,
    tasks: TaskRegistry,
    config: ExecutorConfig,
    health: DeviceHealthRegistry,
    last_stats: Option<ExecutionStats>,
    residency: Option<ResidencyCache>,
    /// Devices hot-added since the last run; drained into
    /// [`ExecutionStats::hot_adds`] by the next run.
    pending_hot_adds: usize,
}

impl Executor {
    /// Creates an executor around a task registry.
    pub fn new(tasks: TaskRegistry, config: ExecutorConfig) -> Self {
        Executor {
            devices: DeviceRegistry::new(),
            tasks,
            config,
            health: DeviceHealthRegistry::default(),
            last_stats: None,
            residency: None,
            pending_hot_adds: 0,
        }
    }

    /// Plugs a device and installs every matching kernel on it.
    pub fn add_device(&mut self, device: Box<dyn Device>) -> Result<DeviceId> {
        let id = self.devices.add(device);
        let dev = self.devices.get_mut(id)?;
        self.tasks.install_on(dev.as_mut())?;
        Ok(id)
    }

    /// Convenience: builds and plugs a device from a profile.
    pub fn add_profile(&mut self, profile: &DeviceProfile) -> Result<DeviceId> {
        // The id baked into the built device matches the one the registry
        // will assign. Ids are never reused after a removal, so this must
        // come from the registry, not from counting live devices.
        let next = self.devices.peek_next_id();
        self.add_device(Box::new(profile.build(next)))
    }

    /// Hot-adds a device between runs. Unlike [`Executor::add_device`], the
    /// newcomer enters through the health registry in `HalfOpen`, so it
    /// earns traffic via the existing probe ramp (one probe pipeline per
    /// query until a success closes the breaker) instead of instantly
    /// absorbing load the engine knows nothing about. Placement and the
    /// cost model pick it up on the next run without any rebuild.
    pub fn attach_device(&mut self, device: Box<dyn Device>) -> Result<DeviceId> {
        let id = self.devices.add(device);
        let dev = self.devices.get_mut(id)?;
        self.tasks.install_on(dev.as_mut())?;
        self.health.admit_half_open(id);
        self.pending_hot_adds += 1;
        Ok(id)
    }

    /// Convenience: builds and hot-adds a device from a profile (see
    /// [`Executor::attach_device`]).
    pub fn attach_profile(&mut self, profile: &DeviceProfile) -> Result<DeviceId> {
        let next = self.devices.peek_next_id();
        self.attach_device(Box::new(profile.build(next)))
    }

    /// Administratively unplugs a healthy device between runs, returning
    /// it. Residency pins on it are evicted cleanly (buffers freed,
    /// admission charges released — the device is alive, unlike the
    /// mid-query death path), and its health records are dropped so no
    /// ghost entries survive into reports.
    pub fn detach_device(&mut self, id: DeviceId) -> Option<Box<dyn Device>> {
        if let Some(cache) = self.residency.as_mut() {
            cache.invalidate_device(&mut self.devices, id);
            cache.take_freed();
        }
        self.health.forget_device(id);
        self.devices.remove(id)
    }

    /// The plugged devices.
    pub fn devices(&self) -> &DeviceRegistry {
        &self.devices
    }

    /// Mutable device access (benches tweak cost models between runs).
    pub fn devices_mut(&mut self) -> &mut DeviceRegistry {
        &mut self.devices
    }

    /// The task registry.
    pub fn tasks(&self) -> &TaskRegistry {
        &self.tasks
    }

    /// The configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Sets the chunk size (rows).
    pub fn set_chunk_rows(&mut self, rows: usize) {
        self.config.chunk_rows = rows.max(1);
    }

    /// Sets the recovery policy.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.config.retry = retry;
    }

    /// Sets (or clears) the per-query simulated-timeline deadline.
    pub fn set_deadline_ns(&mut self, deadline_ns: Option<f64>) {
        self.config.deadline_ns = deadline_ns;
    }

    /// Sets (or disables, with `None`) the straggler-watchdog multiplier.
    ///
    /// Values below `1.0` would trip on every chunk, so they are clamped up
    /// to `1.0`.
    pub fn set_watchdog_multiplier(&mut self, multiplier: Option<f64>) {
        self.config.watchdog_multiplier = multiplier.map(|m| m.max(1.0));
    }

    /// Replaces the health policy (breaker thresholds, cool-down length).
    /// Recorded health is kept.
    pub fn set_health_policy(&mut self, policy: HealthPolicy) {
        self.health.set_policy(policy);
    }

    /// The cross-query device health registry, read-only.
    pub fn health(&self) -> &DeviceHealthRegistry {
        &self.health
    }

    /// Mutable health registry access (tests force breaker states; callers
    /// may `reset()` it between experiments).
    pub fn health_mut(&mut self) -> &mut DeviceHealthRegistry {
        &mut self.health
    }

    /// Statistics of the most recent run, kept even when the run failed —
    /// the only way to observe breaker trips and deadline aborts of a query
    /// that returned an error.
    pub fn last_run_stats(&self) -> Option<&ExecutionStats> {
        self.last_stats.as_ref()
    }

    /// Installs a fault plan on one device (testing / chaos runs).
    pub fn set_fault_plan(
        &mut self,
        device: DeviceId,
        plan: adamant_device::FaultPlan,
    ) -> Result<()> {
        self.devices.get_mut(device)?.set_fault_plan(plan);
        Ok(())
    }

    /// Enables the cross-query residency cache: hot input columns stay
    /// pinned device-side between runs (up to `config.max_bytes_per_device`
    /// per device), with LRU-by-modeled-transfer-cost eviction. Replaces
    /// any previous cache, freeing its pins.
    pub fn set_residency_cache(&mut self, config: ResidencyConfig) {
        self.clear_residency();
        self.residency = Some(ResidencyCache::new(config));
    }

    /// The residency cache, if enabled (read-only; counters and pins).
    pub fn residency_cache(&self) -> Option<&ResidencyCache> {
        self.residency.as_ref()
    }

    /// Drops the residency cache and frees every pinned buffer it holds,
    /// releasing the admission bytes reserved against each device pool.
    pub fn clear_residency(&mut self) {
        if let Some(mut cache) = self.residency.take() {
            cache.clear(&mut self.devices);
        }
    }

    /// Evicts residency pins on `device` until at least `bytes` of
    /// admission budget is available (or no pins remain). Returns the bytes
    /// freed. The scheduler's reservation ledger calls this before failing
    /// an admission so cache pins always yield to query reservations —
    /// pins can starve, admissions cannot.
    pub fn evict_residency_for_admission(&mut self, device: DeviceId, bytes: u64) -> u64 {
        match self.residency.as_mut() {
            Some(cache) => cache.evict_for_admission(&mut self.devices, device, bytes),
            None => 0,
        }
    }

    /// Bytes of residency pins on `device` that admission pressure could
    /// reclaim.
    pub fn residency_evictable_bytes(&self, device: DeviceId) -> u64 {
        self.residency
            .as_ref()
            .map_or(0, |c| c.pinned_bytes_on(device))
    }

    /// Bytes of `inputs` already resident on `device` via the cache —
    /// transfers the next run of this query would not pay. Placement uses
    /// this to discount modeled transfer cost for cache-warm devices.
    pub fn residency_resident_bytes(&self, device: DeviceId, inputs: &QueryInputs) -> u64 {
        let Some(cache) = self.residency.as_ref() else {
            return 0;
        };
        inputs
            .iter()
            .map(|(name, col)| cache.resident_bytes(device, name, col))
            .sum()
    }

    /// Executes `graph` over `inputs` under `model`.
    ///
    /// Returns exact query outputs plus the modeled execution statistics.
    pub fn run(
        &mut self,
        graph: &PrimitiveGraph,
        inputs: &QueryInputs,
        model: ExecutionModel,
    ) -> Result<(QueryOutput, ExecutionStats)> {
        self.run_with_cancel(graph, inputs, model, &CancelToken::new())
    }

    /// Like [`Executor::run`], under a [`CancelToken`]: cancelling from
    /// another thread unwinds the run between chunks (buffers released, ids
    /// untracked) and returns [`ExecError::Cancelled`].
    pub fn run_with_cancel(
        &mut self,
        graph: &PrimitiveGraph,
        inputs: &QueryInputs,
        model: ExecutionModel,
        cancel: &CancelToken,
    ) -> Result<(QueryOutput, ExecutionStats)> {
        self.run_with_deadline(graph, inputs, model, cancel, self.config.deadline_ns)
    }

    /// Like [`Executor::run_with_cancel`] with a per-query deadline override
    /// replacing [`ExecutorConfig::deadline_ns`] for this run only. The
    /// multi-query scheduler uses this to pass each query's *remaining*
    /// budget rather than a global one.
    pub fn run_with_deadline(
        &mut self,
        graph: &PrimitiveGraph,
        inputs: &QueryInputs,
        model: ExecutionModel,
        cancel: &CancelToken,
        deadline_ns: Option<f64>,
    ) -> Result<(QueryOutput, ExecutionStats)> {
        let wall = Instant::now();
        // Work on a private copy: recovery may re-place nodes onto fallback
        // devices, and the caller's graph must not change under them.
        let mut graph = graph.clone();
        // Fuse eligible chains before splitting: fused nodes enter pipeline
        // assignment, placement, checkpointing and the watchdog as ordinary
        // primitives, so every downstream policy prices the fused unit.
        let fusion_report = if self.config.fusion {
            crate::fusion::fuse_graph(&mut graph)
        } else {
            crate::fusion::FusionReport::default()
        };
        let pipelines = PipelineSet::split(&graph)?;
        self.validate_inputs(&graph, inputs)?;

        // Fresh clocks and peak watermarks for this run; snapshot the fault
        // counters so the stats report this run's injections only.
        let mut fault_base: BTreeMap<DeviceId, u64> = BTreeMap::new();
        for id in self.devices.ids() {
            let dev = self.devices.get_mut(id)?;
            dev.clock_mut().reset();
            fault_base.insert(id, dev.fault_counters().total());
        }

        let mut run = RunState {
            inputs,
            cfg: model.config(),
            hub: DataTransferHub::new(),
            stats: ExecutionStats {
                model: model.name().to_string(),
                pipelines: pipelines.len(),
                hot_adds: std::mem::take(&mut self.pending_hot_adds),
                nodes_fused: fusion_report.nodes_fused,
                fused_chains: fusion_report.fused_chains,
                ..Default::default()
            },
            serial_ns: 0.0,
            overlap_ns: 0.0,
            escaping: escaping_refs(&graph, &pipelines),
            deadline_ns,
            cancel: cancel.clone(),
            ckpt: CheckpointState::new(self.config.checkpoints),
            fault_base,
        };
        // The hub verifies every host↔device transfer end-to-end; a corrupted
        // transfer gets as many retransmissions as the retry policy grants
        // attempts before the error surfaces to the recovery loop.
        run.hub.set_retransmit_budget(
            u32::try_from(self.config.retry.max_attempts).unwrap_or(u32::MAX),
        );
        // Health-aware placement repair: move pipelines off quarantined
        // devices, admit at most one half-open probe, and tell the hub which
        // devices to avoid as transfer sources.
        self.apply_health_placement(&mut graph, &pipelines, &mut run.stats);
        run.hub
            .set_quarantined(self.health.quarantined_ids().into_iter().collect());
        // Lend the cross-query residency cache to this run's hub. Pins on
        // quarantined devices are invalidated up front — a tripped device's
        // contents are not trusted, and holding the pins would leak their
        // admission charge if the device later resets.
        if let Some(mut cache) = self.residency.take() {
            for dev in self.health.quarantined_ids() {
                cache.invalidate_device(&mut self.devices, dev);
            }
            run.hub.install_cache(cache);
        }

        // Graph-level restart loop: a permanent device death (`Gone`)
        // unwinds the whole run — the corpse's buffers are written off, the
        // survivors rolled back, pipelines re-placed — and the query either
        // resumes from the last validated checkpoint (when enabled and one
        // exists) or restarts from row 0 on the remaining devices. The bound
        // is recomputed from the live registry after every death: each
        // restart retires exactly one device, so the loop still terminates,
        // but devices hot-added via `attach_device` since the run began
        // extend the budget instead of being silently ignored.
        let mut restarts_left = self.devices.len();
        let run_result = loop {
            let attempt = (|| -> Result<QueryOutput> {
                let cursor = run.ckpt.cursor.take();
                let skip = cursor.as_ref().map_or(0, |c| c.pipelines_done);
                for (pi, pipeline) in pipelines.pipelines.iter().enumerate().skip(skip) {
                    let resume = cursor
                        .as_ref()
                        .filter(|c| pi == skip && c.resume_offset > 0);
                    self.run_pipeline_with_recovery(&mut graph, pipeline, &mut run, resume)?;
                    run.ckpt.pipelines_done = pi + 1;
                    // Pipeline-breaker boundary: always a considered capture
                    // site; the cost policy decides whether to snapshot.
                    self.maybe_capture_checkpoint(&mut run, 0)?;
                }
                self.collect_outputs(&graph, &mut run)
            })();
            let dead = match &attempt {
                Err(err) if restarts_left > 0 => err.gone_device(),
                _ => None,
            };
            let Some(dead) = dead else {
                break attempt;
            };
            if let Err(e) = self.handle_device_loss(dead, &mut graph, &pipelines, &mut run) {
                break Err(e);
            }
            restarts_left = self.devices.len();
        };

        // Peaks, byte counts and per-run fault deltas before cleanup.
        for id in self.devices.ids() {
            run.fold_device(id, self.devices.get(id)?);
        }
        let hub = &mut run.hub;
        let stats = &mut run.stats;
        stats.quarantine_skips += hub.take_quarantine_skips();
        // Silent-corruption accounting: every checksum-mismatch retransmit
        // the hub performed is charged to the offending device's health.
        for (dev, n) in hub.take_corruption_retransmits() {
            stats.corruption_retransmits += n as usize;
            for _ in 0..n {
                self.health.record_corruption(dev);
            }
        }
        stats.rollback_delete_errors += hub.take_rollback_delete_errors();
        // Delete phase: free everything this run created. Cache pins are not
        // run-created and survive into the next run.
        hub.delete_all(&mut self.devices);
        if let Some(mut cache) = hub.take_cache() {
            let c = cache.take_counters();
            stats.cache_hits += c.hits;
            stats.cache_misses += c.misses;
            stats.cache_evictions += c.evictions;
            stats.cache_invalidations += c.invalidations;
            stats.cache_saved_transfer_ns += c.saved_transfer_ns;
            stats.cache_pinned_bytes = cache.total_pinned_bytes();
            self.residency = Some(cache);
        }
        for id in self.devices.ids() {
            run.drain(self.devices.get_mut(id)?.as_mut());
        }

        let mut stats = run.stats;
        stats.total_ns = run.serial_ns + run.overlap_ns;
        stats.wall_ns = wall.elapsed().as_nanos() as u64;

        // Tick breaker cool-downs and snapshot post-query health, whether
        // the run succeeded or not.
        self.health.on_query_completed();
        let mut names: BTreeMap<DeviceId, String> = BTreeMap::new();
        for id in self.devices.ids() {
            names.insert(id, self.devices.get(id)?.info().name.clone());
        }
        for (id, snap) in self.health.snapshot() {
            let name = names
                .get(&id)
                .cloned()
                .unwrap_or_else(|| format!("dev#{}", id.0));
            stats.device_health.insert(name, snap);
        }
        self.last_stats = Some(stats.clone());
        let output = run_result?;
        Ok((output, stats))
    }

    /// Pre-run placement repair from cross-query health: every pipeline
    /// placed on a quarantined device — or whose kernels are quarantined
    /// *on* that device — is moved to a healthy capable device when one
    /// exists; a `HalfOpen` device (or `(device, kernel)` breaker) keeps
    /// exactly one pipeline as its recovery probe and sheds the rest.
    ///
    /// Probe placement is latency-aware: among the pipelines placed on a
    /// half-open device, the one with the **cheapest** modeled probe cost
    /// (fewest nodes riding on the suspect device, weighted by its
    /// recovery-aware placement cost including the latency penalty) carries
    /// the probe, so the least work is at risk if the device is still sick.
    fn apply_health_placement(
        &mut self,
        graph: &mut PrimitiveGraph,
        pipelines: &PipelineSet,
        stats: &mut ExecutionStats,
    ) {
        // Pre-pass: pick, per half-open device, the cheapest pipeline to
        // carry its recovery probe (ties broken by earliest pipeline).
        let est_bytes = (self.config.chunk_rows.max(1) * 8) as u64;
        let mut probe_choice: HashMap<DeviceId, (f64, usize)> = HashMap::new();
        for (pi, pipeline) in pipelines.pipelines.iter().enumerate() {
            for &n in &pipeline.nodes {
                let dev = graph.node(n).device;
                if !(self.health.is_half_open(dev) && self.health.probe_candidate(dev)) {
                    continue;
                }
                let nodes_on_dev = pipeline
                    .nodes
                    .iter()
                    .filter(|&&m| graph.node(m).device == dev)
                    .count();
                let unit = match self.devices.get(dev) {
                    Ok(d) => d
                        .placement_cost_ns(est_bytes, self.health.placement_penalty_ns(dev))
                        .max(1.0),
                    Err(_) => 1.0,
                };
                let cost = nodes_on_dev as f64 * unit;
                let entry = probe_choice.entry(dev).or_insert((cost, pi));
                if cost < entry.0 {
                    *entry = (cost, pi);
                }
            }
        }
        let mut probe_granted: HashSet<DeviceId> = HashSet::new();
        let mut kernel_probe_granted: HashSet<(DeviceId, String)> = HashSet::new();
        for (pi, pipeline) in pipelines.pipelines.iter().enumerate() {
            for dev in devices_of(graph, pipeline) {
                let kernels = self.kernels_on_device(graph, pipeline, dev);
                let avoid = if self.devices.get(dev).is_err() {
                    // The plan targets a device that is no longer plugged
                    // (it died in an earlier run, or was detached): move the
                    // work to a live device rather than failing the lookup
                    // mid-pipeline.
                    true
                } else if self.health.is_quarantined(dev) {
                    true
                } else if self.health.is_half_open(dev) {
                    if self.health.probe_candidate(dev)
                        && probe_choice.get(&dev).map(|&(_, p)| p) == Some(pi)
                        && probe_granted.insert(dev)
                    {
                        // This pipeline is the device's one probe this query:
                        // the cheapest eligible pipeline from the pre-pass.
                        self.health.begin_probe(dev);
                        false
                    } else {
                        // Already probing via an earlier pipeline: shed the
                        // extra load until the probe verdict is in.
                        true
                    }
                } else if kernels
                    .iter()
                    .any(|k| self.health.kernel_known_broken(dev, k))
                {
                    // A kernel this pipeline needs is quarantined here; the
                    // device itself stays available for other pipelines.
                    true
                } else {
                    // Grant at most one probe per half-open (device, kernel)
                    // breaker; shed pipelines needing a kernel whose probe is
                    // already in flight elsewhere.
                    let mut shed = false;
                    for k in &kernels {
                        let key = (dev, k.clone());
                        if self.health.kernel_probe_candidate(dev, k)
                            && !kernel_probe_granted.contains(&key)
                        {
                            kernel_probe_granted.insert(key);
                            self.health.begin_kernel_probe(dev, k);
                        } else if matches!(
                            self.health.kernel_state(dev, k),
                            Some(adamant_device::health::BreakerState::HalfOpen)
                        ) {
                            shed = true;
                        }
                    }
                    shed
                };
                // With no healthy capable candidate the placement stays and
                // the run tries its luck (graceful degradation beats refusing
                // to run at all).
                if avoid && self.repoint_pipeline(graph, pipeline, dev) {
                    stats.quarantine_skips += 1;
                }
            }
        }
    }

    /// Kernel names the pipeline's nodes placed on `dev` resolve to there
    /// (deduplicated, sorted for determinism).
    fn kernels_on_device(
        &self,
        graph: &PrimitiveGraph,
        pipeline: &Pipeline,
        dev: DeviceId,
    ) -> Vec<String> {
        let Ok(device) = self.devices.get(dev) else {
            return Vec::new();
        };
        let sdk = device.info().sdk;
        let mut kernels: Vec<String> = pipeline
            .nodes
            .iter()
            .filter(|&&n| graph.node(n).device == dev)
            .filter_map(|&n| {
                let node = graph.node(n);
                self.tasks
                    .resolve(node.kind, sdk, node.variant.as_deref())
                    .map(|c| c.kernel_name())
            })
            .collect();
        kernels.sort_unstable();
        kernels.dedup();
        kernels
    }

    /// Runs one pipeline with bounded fault recovery (the tentpole of the
    /// executor's hardening): a failed attempt is unwound — buffers freed
    /// back to the pre-attempt mark, partial host accumulations discarded —
    /// and retried according to [`RetryPolicy`] and the error's
    /// [`FailureClass`].
    fn run_pipeline_with_recovery(
        &mut self,
        graph: &mut PrimitiveGraph,
        pipeline: &Pipeline,
        run: &mut RunState,
        resume: Option<&ResumeCursor>,
    ) -> Result<()> {
        let retry = self.config.retry;
        let mut chunk_rows = self.config.chunk_rows;
        // Consecutive kernel failures on the same device: one is treated as
        // transient, two trigger a fallback placement.
        let mut kernel_fault_streak: Option<(DeviceId, usize)> = None;
        let mut attempt = 0usize;
        loop {
            attempt += 1;
            run.check(0.0)?;
            // Devices this attempt runs on (re-placement changes them), for
            // the health registry's attempt/success accounting.
            let attempt_devs = devices_of(graph, pipeline);
            for &d in &attempt_devs {
                self.health.record_attempt(d);
            }
            let lanes_before = run.lanes_ns();
            let mark = run.hub.mark();
            let result = if pipeline.is_streaming() && run.cfg.chunked {
                self.run_streaming(graph, pipeline, chunk_rows, run, resume)
            } else {
                self.run_whole(graph, pipeline, run)
            };
            let err = match result {
                Err(e) if e.gone_device().is_some() => {
                    // Permanent device death: pipeline-scope recovery must
                    // not touch the corpse (rollback would call into it and
                    // a health verdict would record a ghost), so surface it
                    // untouched to the run-level membership recovery.
                    return Err(e);
                }
                Ok(()) => {
                    for &d in &attempt_devs {
                        if self.health.record_success(d) {
                            run.stats.probe_successes += 1;
                        }
                        // Every kernel the successful pipeline resolved on
                        // this device ran clean: reset its streak and settle
                        // any in-flight kernel probe.
                        for k in self.kernels_on_device(graph, pipeline, d) {
                            if self.health.record_kernel_success(d, &k) {
                                run.stats.kernel_probe_successes += 1;
                            }
                        }
                    }
                    return Ok(());
                }
                Err(e) => e,
            };

            // Unwind the attempt. The modeled time already spent is real
            // (wasted work is charged); the buffers and partial host
            // accumulations are not.
            for id in self.devices.ids() {
                run.drain(self.devices.get_mut(id)?.as_mut());
            }
            run.hub.rollback_to(&mut self.devices, mark);
            for r in &run.escaping {
                if let DataRef::Output { node, .. } = r {
                    if pipeline.nodes.contains(node) {
                        run.hub.discard_host(*r);
                    }
                }
            }
            // A resumed pipeline retries from the checkpoint boundary, not
            // row 0: reinstate the snapshot's host prefix (content and
            // contiguity watermark) that the discard just dropped, so the
            // next attempt's accumulations continue from `resume_offset`.
            if let Some(c) = resume {
                run.hub.restore_host(&c.host);
            }

            // Feed the failure back into the health registry: what the
            // attempt burned (the stats lanes kept accumulating through the
            // chunk loop and the unwind drain) is its observed retry cost.
            let wasted_ns = (run.lanes_ns() - lanes_before).max(0.0);
            let class = classify(&err);
            let verdict = match class {
                // A bare device OOM does not say which device; charge the
                // pipeline's first device (deterministic, and pipelines are
                // single-device in all built-in plans).
                FailureClass::Oom(named) => FailureVerdict {
                    device_tripped: named
                        .or(attempt_devs.first().copied())
                        .is_some_and(|d| self.health.record_oom(d, wasted_ns)),
                    kernel_tripped: false,
                },
                FailureClass::Kernel { device, kernel } => {
                    self.health.record_kernel_failure(device, kernel, wasted_ns)
                }
                FailureClass::Corrupt(device) => {
                    // The retransmit loop already logged each mismatch; the
                    // exhausted budget itself counts as one more strike.
                    self.health.record_corruption(device);
                    FailureVerdict::default()
                }
                FailureClass::NoImpl | FailureClass::Fatal => FailureVerdict::default(),
            };
            run.stats.breaker_trips += usize::from(verdict.device_tripped);
            run.stats.kernel_breaker_trips += usize::from(verdict.kernel_tripped);
            // Residency pins on the failing devices are part of the fault
            // domain: an OOM retry needs the memory back, a tripped breaker
            // or corrupted link means the device's contents are not trusted.
            // Invalidate instead of leaking them into the next attempt.
            if verdict.device_tripped
                || matches!(class, FailureClass::Oom(_) | FailureClass::Corrupt(_))
            {
                for &d in &attempt_devs {
                    run.hub.evict_cache_on(&mut self.devices, d);
                }
            }

            if attempt >= retry.max_attempts.max(1) {
                return Err(err);
            }

            let move_off = match class {
                FailureClass::Oom(_) => {
                    // Shrink the streaming chunk so the working set fits.
                    // When halving is impossible (whole-buffer pipeline,
                    // already at the floor, order-sensitive primitives that
                    // must see the scan in one chunk) a plain retry still
                    // clears transient allocation faults.
                    if pipeline.is_streaming()
                        && run.cfg.chunked
                        && chunk_rows > retry.min_chunk_rows.max(1)
                        && order_sensitive_kind(graph, pipeline).is_none()
                    {
                        chunk_rows = (chunk_rows / 2).max(retry.min_chunk_rows.max(1));
                        run.stats.chunk_backoffs += 1;
                    }
                    None
                }
                FailureClass::Kernel { device, .. } => {
                    let streak = match kernel_fault_streak {
                        Some((d, n)) if d == device => n + 1,
                        _ => 1,
                    };
                    // A persistent per-device failure moves the pipeline's
                    // work off the device.
                    kernel_fault_streak = (streak < 2).then_some((device, streak));
                    (streak >= 2).then_some(device)
                }
                FailureClass::Corrupt(device) => Some(device),
                // A placement bug, not a transient fault: retrying on the
                // same device can never succeed, so fall back immediately or
                // fail fast.
                FailureClass::NoImpl => match self.find_unresolvable_device(graph, pipeline) {
                    Some(dev) => Some(dev),
                    None => return Err(err),
                },
                FailureClass::Fatal => return Err(err),
            };
            if let Some(dev) = move_off {
                if !self.repoint_pipeline(graph, pipeline, dev) {
                    return Err(err);
                }
                run.stats.fallback_placements += 1;
            }
            run.stats.retries += 1;
        }
    }

    /// Full-engine recovery from a permanent device death (the membership
    /// tentpole). In order:
    ///
    /// 1. the corpse's modeled time, byte counts, pool peak and fault delta
    ///    are captured into the stats (the post-run sweep only sees
    ///    survivors);
    /// 2. every hub buffer and residency pin on it is written off without
    ///    calling into it, and its pool/admission accounting zeroed so the
    ///    no-leak invariant still holds;
    /// 3. the whole attempt is unwound on the survivors (buffers freed,
    ///    host accumulations discarded) so re-staging starts from pristine
    ///    host copies;
    /// 4. health records are dropped, the device unplugged, and every
    ///    pipeline still pointing at it re-placed onto the best survivor;
    /// 5. when checkpoints are enabled and the latest snapshot validates,
    ///    its host accumulations and completed-pipeline breaker copies are
    ///    restored onto the (re-placed) survivors and a resume cursor is
    ///    armed, so the restart skips everything the snapshot holds; any
    ///    validation or restore failure counts a typed stat and degrades to
    ///    the legacy full restart from row 0 — never a wrong answer.
    ///
    /// Errors with the original `Gone` when no survivor can take the work.
    fn handle_device_loss(
        &mut self,
        dead: DeviceId,
        graph: &mut PrimitiveGraph,
        pipelines: &PipelineSet,
        run: &mut RunState,
    ) -> Result<()> {
        run.stats.device_deaths += 1;
        if let Ok(dev) = self.devices.get_mut(dead) {
            // Host-side accessors still work on the corpse; capture its
            // contribution before it is unplugged.
            run.drain(dev.as_mut());
            run.fold_device(dead, dev.as_ref());
        }
        let hub = &mut run.hub;
        let stats = &mut run.stats;
        let ckpt = &mut run.ckpt;
        let (buffers, lost_bytes) = hub.write_off_device(&mut self.devices, dead);
        stats.buffers_written_off += buffers;
        stats.restaged_bytes += lost_bytes;
        hub.rollback_to(&mut self.devices, 0);
        hub.discard_all_host();
        self.health.forget_device(dead);
        self.devices.remove(dead);
        let gone = || ExecError::Device(adamant_device::error::DeviceError::Gone { device: dead });
        if self.devices.is_empty() {
            return Err(gone());
        }
        for pipeline in &pipelines.pipelines {
            let on_dead = pipeline.nodes.iter().any(|&n| graph.node(n).device == dead);
            if on_dead && !self.repoint_pipeline(graph, pipeline, dead) {
                return Err(gone());
            }
        }
        // Membership is settled; default to a full restart unless a
        // checkpoint restores cleanly below.
        ckpt.cursor = None;
        ckpt.pipelines_done = 0;
        ckpt.chunks_done = 0;
        if !ckpt.cfg.enabled {
            return Ok(());
        }
        let valid = match &ckpt.latest {
            Some(cp) if cp.validate() => true,
            Some(_) => {
                // Corrupted snapshot (e.g. scripted via
                // `FaultPlan::corrupt_checkpoint`): drop it and restart from
                // row 0 rather than resume from untrusted state.
                stats.resume_validation_failures += 1;
                ckpt.latest = None;
                false
            }
            None => false,
        };
        if !valid {
            return Ok(());
        }
        let cp = ckpt.latest.as_ref().expect("validated above");
        // Split the snapshot's resident copies: accumulators of *completed*
        // pipelines are restored here (later pipelines consume them
        // read-only), while the in-progress pipeline's own accumulators are
        // carried in the cursor and seeded per attempt by `run_streaming` —
        // they are mutated in place by every chunk, so they must live inside
        // the attempt's rollback scope or a retry would double-count.
        let in_progress: &[NodeId] = pipelines
            .pipelines
            .get(cp.pipelines_done)
            .map_or(&[], |p| p.nodes.as_slice());
        let restored = (|| -> Result<()> {
            hub.restore_host(&cp.host);
            for (r, payload) in &cp.resident {
                let target = match r {
                    DataRef::Output { node, .. } if !in_progress.contains(node) => {
                        graph.node(*node).device
                    }
                    _ => continue,
                };
                hub.restore_resident(&mut self.devices, *r, target, payload)?;
            }
            Ok(())
        })();
        match restored {
            Ok(()) => {
                stats.resumes += 1;
                stats.chunks_skipped_on_resume += cp.chunks_done;
                ckpt.pipelines_done = cp.pipelines_done;
                ckpt.chunks_done = cp.chunks_done;
                ckpt.cursor = Some(ResumeCursor {
                    pipelines_done: cp.pipelines_done,
                    resume_offset: cp.resume_offset,
                    host: cp.host.clone(),
                    seed: cp
                        .resident
                        .iter()
                        .filter(|(r, _)| {
                            matches!(r, DataRef::Output { node, .. }
                                if in_progress.contains(node))
                        })
                        .map(|(r, p)| (*r, p.clone()))
                        .collect(),
                });
                Ok(())
            }
            Err(_) => {
                // Re-staging the snapshot failed (e.g. a second device died
                // or OOMed mid-restore). Unwind whatever landed and fall
                // back to the full restart; if a survivor really is gone the
                // restart will hit its `Gone` and run-level recovery handles
                // that death in turn.
                hub.rollback_to(&mut self.devices, 0);
                hub.discard_all_host();
                stats.resume_validation_failures += 1;
                ckpt.latest = None;
                Ok(())
            }
        }
    }

    /// Modeled cost of capturing a checkpoint right now: one verified D2H
    /// retrieval per device-resident breaker accumulator, priced by each
    /// holder's own cost model (host accumulations are already host-side
    /// and cost nothing to snapshot).
    fn estimate_capture_ns(&self, hub: &DataTransferHub) -> f64 {
        let mut total = 0.0;
        for (r, dev, id) in hub.resident_refs() {
            if !matches!(r, DataRef::Output { .. }) {
                continue;
            }
            if let Ok(d) = self.devices.get(dev) {
                if let Ok(buf) = d.pool().get(id) {
                    total += d.placement_cost_ns(buf.footprint(), 0.0);
                }
            }
        }
        total
    }

    /// Considered checkpoint boundary: captures a snapshot when the
    /// cost-model policy agrees — the modeled re-execution cost accumulated
    /// since the last snapshot must exceed the estimated capture cost times
    /// [`CheckpointConfig::cost_factor`]. `resume_offset` is the in-progress
    /// pipeline's high-water scan row (0 at pipeline boundaries).
    fn maybe_capture_checkpoint(&mut self, run: &mut RunState, resume_offset: usize) -> Result<()> {
        if !run.ckpt.cfg.enabled {
            return Ok(());
        }
        let est = self.estimate_capture_ns(&run.hub);
        if run.lanes_ns() - run.ckpt.lanes_mark <= est * run.ckpt.cfg.cost_factor {
            return Ok(());
        }
        self.capture_checkpoint(run, resume_offset)
    }

    /// Captures one consistent snapshot. The candidate is fully assembled
    /// and sealed before it replaces `ckpt.latest`, so a device death in
    /// the middle of a capture (any retrieval may return `Gone`) leaves the
    /// previous snapshot intact — recovery then resumes from the older but
    /// still consistent boundary. Capture transfers pay real modeled D2H
    /// cost, drained into the stats here so the surrounding chunk loop's
    /// per-chunk attribution stays clean.
    fn capture_checkpoint(&mut self, run: &mut RunState, resume_offset: usize) -> Result<()> {
        let hub = &mut run.hub;
        let host = hub.snapshot_host();
        let mut resident: Vec<(DataRef, BufferData)> = Vec::new();
        let mut manifest: Vec<String> = Vec::new();
        for (r, dev, id) in hub.resident_refs() {
            // Inputs re-stage from pristine host columns for free; only
            // materialized intermediates need host copies.
            if !matches!(r, DataRef::Output { .. }) {
                continue;
            }
            let payload = hub.retrieve_verified(&mut self.devices, dev, id, None, 0)?;
            manifest.push(format!("place {:?} ({} B)", r, payload.byte_len()));
            resident.push((r, payload));
        }
        for (r, _, watermark) in &host {
            manifest.push(format!("host {:?} @{}", r, watermark));
        }
        let mut cp = QueryCheckpoint {
            pipelines_done: run.ckpt.pipelines_done,
            resume_offset,
            chunks_done: run.ckpt.chunks_done,
            host,
            resident,
            manifest,
            bytes: 0,
            checksum: 0,
        };
        cp.seal();
        for id in self.devices.ids() {
            run.drain(self.devices.get_mut(id)?.as_mut());
            // Scripted checkpoint corruption: a device's fault plan may
            // damage the snapshot in flight. The stored checksum no longer
            // matches the content, so the resume-time validation rejects it
            // and recovery degrades to a full restart — never resumes from
            // (or produces) corrupt state.
            if self.devices.get_mut(id)?.corrupt_checkpoint_capture() {
                cp.checksum ^= 1;
            }
        }
        run.stats.checkpoints_taken += 1;
        run.stats.checkpoint_bytes += cp.bytes;
        run.ckpt.lanes_mark = run.lanes_ns();
        run.ckpt.latest = Some(cp);
        Ok(())
    }

    /// Moves every node of `pipeline` currently placed on `failed` onto the
    /// best other device that implements all of them (see
    /// [`Executor::rank_devices`]); a quarantined device is chosen only as a
    /// last resort, lowest id first. Returns whether a re-placement
    /// happened.
    fn repoint_pipeline(
        &self,
        graph: &mut PrimitiveGraph,
        pipeline: &Pipeline,
        failed: DeviceId,
    ) -> bool {
        let moving: Vec<NodeId> = pipeline
            .nodes
            .iter()
            .copied()
            .filter(|&n| graph.node(n).device == failed)
            .collect();
        if moving.is_empty() {
            return false;
        }
        let est_bytes = (self.config.chunk_rows.max(1) * 8) as u64;
        let (healthy, quarantined) = self.rank_devices(graph, &moving, failed, est_bytes);
        let Some(target) = healthy.or(quarantined) else {
            return false;
        };
        for &n in &moving {
            graph.nodes[n.0].device = target;
        }
        true
    }

    /// Ranks the devices other than `exclude` that can run every node in
    /// `nodes` — each resolves to a kernel not known broken there. Returns
    /// the cheapest healthy candidate by recovery-aware placement cost
    /// (modeled staging of `est_bytes` plus the retry and latency
    /// penalties), lowest id on ties, and the lowest-id quarantined one.
    fn rank_devices(
        &self,
        graph: &PrimitiveGraph,
        nodes: &[NodeId],
        exclude: DeviceId,
        est_bytes: u64,
    ) -> (Option<DeviceId>, Option<DeviceId>) {
        let mut healthy: Vec<(f64, DeviceId)> = Vec::new();
        let mut quarantined: Vec<DeviceId> = Vec::new();
        for cand in self.devices.ids() {
            let Ok(dev) = self.devices.get(cand) else {
                continue;
            };
            let sdk = dev.info().sdk;
            let capable = cand != exclude
                && nodes.iter().all(|&n| {
                    let node = graph.node(n);
                    self.tasks
                        .resolve(node.kind, sdk, node.variant.as_deref())
                        .is_some_and(|c| !self.health.kernel_known_broken(cand, &c.kernel_name()))
                });
            if !capable {
                continue;
            }
            if self.health.is_quarantined(cand) {
                quarantined.push(cand);
            } else {
                let penalty = self.health.placement_penalty_ns(cand);
                healthy.push((dev.placement_cost_ns(est_bytes, penalty), cand));
            }
        }
        let best = healthy
            .into_iter()
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, id)| id);
        (best, quarantined.into_iter().min())
    }

    /// The first device in `pipeline` whose SDK lacks an implementation for
    /// one of its nodes, if any.
    fn find_unresolvable_device(
        &self,
        graph: &PrimitiveGraph,
        pipeline: &Pipeline,
    ) -> Option<DeviceId> {
        for &n in &pipeline.nodes {
            let node = graph.node(n);
            let sdk = self.devices.get(node.device).ok()?.info().sdk;
            if self
                .tasks
                .resolve(node.kind, sdk, node.variant.as_deref())
                .is_none()
            {
                return Some(node.device);
            }
        }
        None
    }

    // ---- validation -----------------------------------------------------

    fn validate_inputs(&self, graph: &PrimitiveGraph, inputs: &QueryInputs) -> Result<()> {
        let mut scan_lens: HashMap<&str, usize> = HashMap::new();
        for gi in graph.inputs() {
            let col = inputs
                .get(&gi.name)
                .ok_or_else(|| ExecError::MissingInput(gi.name.clone()))?;
            if let Some(scan) = &gi.scan {
                match scan_lens.get(scan.as_str()) {
                    Some(&len) if len != col.len() => {
                        return Err(ExecError::InputLengthMismatch {
                            scan: scan.clone(),
                            expected: len,
                            actual: col.len(),
                        })
                    }
                    None => {
                        scan_lens.insert(scan.as_str(), col.len());
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    // ---- whole-input execution (OAAT and full-buffer pipelines) ---------

    fn run_whole(
        &mut self,
        graph: &PrimitiveGraph,
        pipeline: &Pipeline,
        run: &mut RunState,
    ) -> Result<()> {
        for &node_id in &pipeline.nodes {
            run.check(0.0)?;
            let node = graph.node(node_id).clone();
            let in_ids =
                self.bind_inputs(graph, &node, run, None, &HashMap::new(), &HashMap::new())?;
            let pool = self.devices.get(node.device)?.pool();
            let est_rows = in_ids
                .iter()
                .map(|&id| pool.get(id).map_or(0, |b| b.data.len()))
                .max()
                .unwrap_or(0);
            run.drain(self.devices.get_mut(node.device)?.as_mut());

            // Prepare outputs (all materialized in whole mode).
            let mut out_ids = Vec::with_capacity(node.output_count);
            for (port, r) in node.output_refs() {
                let semantic = graph.semantic_of(r);
                let id = run.hub.prepare_output_buffer(
                    &mut self.devices,
                    &node,
                    port,
                    semantic,
                    est_rows,
                )?;
                run.hub.register_resident(r, node.device, id);
                out_ids.push(id);
            }
            run.drain(self.devices.get_mut(node.device)?.as_mut());

            // Execute once over the whole inputs.
            let saved = self.execute_node(&node, &in_ids, &out_ids)?;
            run.stats.fusion_saved_transfer_ns += saved;
            Self::note_intermediates(graph, &node, est_rows, &mut run.stats);
            let lanes = run.charge(self.devices.get_mut(node.device)?.as_mut());
            let slice_ns = lanes.transfer + lanes.compute + lanes.other;
            run.serial_ns += slice_ns;
            run.stats.record_primitive(&node.label, lanes.compute);
            run.stats.slice_ns.push(slice_ns);
            let used = self.devices.get(node.device)?.pool().used();
            run.stats.memory_trace.push((node.label.clone(), used));
        }
        Ok(())
    }

    // ---- streaming (chunked) execution -----------------------------------

    fn run_streaming(
        &mut self,
        graph: &PrimitiveGraph,
        pipeline: &Pipeline,
        chunk_rows: usize,
        run: &mut RunState,
        resume: Option<&ResumeCursor>,
    ) -> Result<()> {
        let cfg = run.cfg;
        let scan = pipeline
            .scan
            .clone()
            .expect("streaming pipeline has a scan");
        let chunk_rows = chunk_rows.max(1);
        // Adaptive regrowth: after `regrow_after_chunks` consecutive
        // successful chunks at a backed-off size, double back toward the
        // configured size. Staging buffers grow in place (`place_data`
        // re-checks the accounting, so an over-eager regrow surfaces as a
        // recoverable OOM). Any failed chunk unwinds the whole attempt, so
        // within an attempt every processed chunk succeeded and the size is
        // a pure function of the chunk index — the chunk slicer (on the
        // overlap path's transfer thread) and the chunk body evaluate the
        // same [`ChunkSchedule`] instead of exchanging sizes through shared
        // state, keeping chunk boundaries deterministic under any thread
        // interleaving.
        let schedule = ChunkSchedule {
            start: chunk_rows,
            configured: self.config.chunk_rows.max(1),
            regrow_after: self.config.retry.regrow_after_chunks,
        };

        // The scan columns this pipeline streams, and their length.
        let mut scan_cols: Vec<(usize, Arc<Vec<i64>>)> = Vec::new();
        let mut seen = HashSet::new();
        for &node_id in &pipeline.nodes {
            for &input in &graph.node(node_id).inputs {
                if let DataRef::Input(i) = input {
                    if graph.inputs()[i].scan.as_deref() == Some(scan.as_str()) && seen.insert(i) {
                        let col = run.inputs.get(&graph.inputs()[i].name).expect("validated");
                        scan_cols.push((i, Arc::clone(col.values())));
                    }
                }
            }
        }
        let rows = scan_cols.first().map(|(_, c)| c.len()).unwrap_or(0);
        let n_chunks = rows.div_ceil(chunk_rows);
        // Resuming from a checkpoint: rows below the snapshot's high-water
        // offset are already host-accumulated (and folded into the seeded
        // breaker accumulators), so the scan starts there instead of row 0.
        let resume_offset = resume.map_or(0, |c| c.resume_offset).min(rows);

        // Order-sensitive breakers cannot stream across multiple chunks.
        if let Some(kind) = order_sensitive_kind(graph, pipeline).filter(|_| n_chunks > 1) {
            return Err(ExecError::InvalidGraph(format!(
                "{kind} is order-sensitive and cannot run in a multi-chunk \
                 streaming pipeline; materialize its input first"
            )));
        }

        // ---- Stage phase -------------------------------------------------
        let devices_used = devices_of(graph, pipeline);
        let mut stream = Stream {
            graph,
            pipeline,
            scan_cols,
            staging: HashMap::new(),
            slots: if cfg.stage_once {
                cfg.staging_buffers
            } else {
                1
            },
            scratch: HashMap::new(),
        };
        let chunk_bytes = (chunk_rows.min(rows.max(1)) * 8) as u64;
        for &(input_idx, _) in &stream.scan_cols {
            for &dev_id in &devices_used {
                for slot in 0..stream.slots {
                    let id = run.hub.fresh_id();
                    let dev = self.devices.get_mut(dev_id)?;
                    if cfg.pinned {
                        dev.add_pinned_memory(id, chunk_bytes)?;
                    } else {
                        dev.prepare_memory(id, chunk_bytes)?;
                    }
                    run.hub.track_created(dev_id, id);
                    stream.staging.insert((input_idx, dev_id, slot), id);
                }
            }
        }

        // Scratch outputs (non-breaker) and accumulators (breaker outputs).
        for &node_id in &pipeline.nodes {
            let node = graph.node(node_id).clone();
            for (port, r) in node.output_refs() {
                let semantic = graph.semantic_of(r);
                if node.kind.is_pipeline_breaker() {
                    let id = run.hub.prepare_output_buffer(
                        &mut self.devices,
                        &node,
                        port,
                        semantic,
                        rows,
                    )?;
                    run.hub.register_resident(r, node.device, id);
                    // Checkpoint resume: seed the freshly created accumulator
                    // with the snapshot's partial state. The seed is applied
                    // per attempt (the accumulator is created after the
                    // recovery mark), so an intra-pipeline retry rolls the
                    // in-place chunk mutations back and re-seeds cleanly —
                    // chunks past `resume_offset` are never double-counted.
                    if let Some(seed) = resume.and_then(|c| c.seed_for(r)) {
                        run.hub.place_verified(
                            &mut self.devices,
                            node.device,
                            id,
                            seed.clone(),
                            0,
                        )?;
                    }
                } else if cfg.stage_once {
                    let id = run.hub.prepare_output_buffer(
                        &mut self.devices,
                        &node,
                        port,
                        semantic,
                        chunk_rows.min(rows.max(1)),
                    )?;
                    stream.scratch.insert(r, id);
                }
            }
        }
        for &dev_id in &devices_used {
            run.drain(self.devices.get_mut(dev_id)?.as_mut());
        }

        // ---- Copy-compute phase -------------------------------------------
        // Algorithm 2: a transfer side slices chunks and hands them to the
        // execute side; `fetched_until`/`processed_until` track progress
        // exactly as in the paper. Overlapping models run the slicer on a
        // real transfer thread behind a bounded channel whose capacity is the
        // number of staging buffers; the others slice inline. Both feed the
        // same chunk body.
        let fetched_until = AtomicUsize::new(0);
        let processed_until = AtomicUsize::new(0);
        let chunks = slice_chunks(stream.scan_cols.clone(), schedule, resume_offset, rows);
        let cancel = run.cancel.clone();
        let mut chunk_costs: Vec<ChunkCost> = Vec::with_capacity(n_chunks);
        // Device time charged to the owning query per chunk (winner cost
        // plus any hedge work) — what the multi-query scheduler replays.
        let mut chunk_charges: Vec<f64> = Vec::with_capacity(n_chunks);
        let mut streamed_ns = 0.0_f64;
        let mut body = |chunk: Chunk| -> Result<()> {
            run.check(streamed_ns)?;
            if schedule.regrows_at(chunk.index) {
                run.stats.chunk_regrowths += 1;
            }
            debug_assert!(
                fetched_until.load(Ordering::Acquire) > processed_until.load(Ordering::Acquire),
                "execute side ran ahead of transfer side"
            );
            let (offset, len) = (chunk.offset, chunk.len);
            let outcome = self.run_one_chunk(&mut stream, run, chunk)?;
            let (cost, charged) = self.watchdog_and_hedge(&stream, run, outcome, offset, len);
            streamed_ns += cost.transfer_ns + cost.compute_ns;
            chunk_costs.push(cost);
            chunk_charges.push(charged);
            // Chunk-interval checkpoint boundary: host accumulations and the
            // breaker accumulators consistently reflect rows
            // `[0, offset + len)` here.
            if run.ckpt.cfg.enabled && run.ckpt.on_chunk_completed() {
                self.maybe_capture_checkpoint(run, offset + len)?;
            }
            processed_until.fetch_add(1, Ordering::Release);
            Ok(())
        };
        // Algorithm 2 ordering: the fetch is advertised *before* the chunk is
        // handed over. The execute side may start on it the instant it is
        // enqueued, so incrementing afterwards would race its
        // `fetched > processed` check.
        let fetched = &fetched_until;
        if cfg.overlap {
            let (tx, rx) = std::sync::mpsc::sync_channel::<Chunk>(cfg.staging_buffers);
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    for chunk in chunks {
                        // Cooperative cancellation: stop slicing; the execute
                        // side surfaces the error at its own check.
                        if cancel.is_cancelled() {
                            return;
                        }
                        fetched.fetch_add(1, Ordering::Release);
                        if tx.send(chunk).is_err() {
                            return; // executor side failed; stop transferring
                        }
                    }
                });
                // The receiver is consumed here, so an early error drops it,
                // failing the transfer thread's blocked `send` instead of
                // deadlocking the implicit join at scope exit.
                rx.into_iter().try_for_each(&mut body)
            })?;
        } else {
            chunks
                .inspect(|_| {
                    fetched.fetch_add(1, Ordering::Release);
                })
                .try_for_each(&mut body)?;
        }
        run.stats.chunks_processed += chunk_costs.len();
        // Preemption points for the multi-query scheduler: each chunk is
        // one interleavable slice of device time, charged at the winner's
        // cost plus any hedge work the chunk spawned (hedges bill the
        // owning query, so fair-share tenants cannot hedge for free).
        run.stats.slice_ns.extend(chunk_charges);
        // Escaped scratch refs that never saw a chunk (empty scans) still
        // need an (empty) host accumulation for downstream consumers.
        for &node_id in &pipeline.nodes {
            let node = graph.node(node_id);
            if node.kind.is_pipeline_breaker() {
                continue;
            }
            for (_, r) in node.output_refs() {
                if run.escaping.contains(&r) && !run.hub.has_host(r) {
                    let semantic = graph.semantic_of(r);
                    run.hub.host_accumulate(
                        r,
                        semantic,
                        adamant_task::container::DataContainer::empty_payload(semantic),
                        0,
                        0,
                    )?;
                }
            }
        }
        if cfg.overlap {
            run.overlap_ns += overlapped_makespan(&chunk_costs, cfg.staging_buffers);
        } else {
            run.serial_ns += chunk_costs
                .iter()
                .map(|c| c.transfer_ns + c.compute_ns)
                .sum::<f64>();
        }
        let in_loop_transfer: f64 = chunk_costs.iter().map(|c| c.transfer_ns).sum();
        let in_loop_compute: f64 = chunk_costs.iter().map(|c| c.compute_ns).sum();
        run.stats.transfer_ns += in_loop_transfer;
        run.stats.compute_ns += in_loop_compute;

        // ---- Per-pipeline delete phase ------------------------------------
        // Free staging and scratch on the device that owns each buffer;
        // breaker accumulators stay resident for downstream pipelines.
        // These buffers are expected to exist, so failures are real leaks
        // and surface as errors; `release` also untracks the ids so the
        // final `delete_all` sweep cannot double-delete them.
        let staging = stream.staging.into_iter().map(|((_, d, _), id)| (d, id));
        let scratch = stream.scratch.into_iter();
        let scratch = scratch.map(|(r, id)| (output_device(graph, r), id));
        for mut ids in [staging.collect::<Vec<_>>(), scratch.collect()] {
            ids.sort_unstable();
            for (dev_id, id) in ids {
                run.hub.release(&mut self.devices, dev_id, id)?;
            }
        }
        for &dev_id in &devices_used {
            run.drain(self.devices.get_mut(dev_id)?.as_mut());
        }
        Ok(())
    }

    /// Processes one chunk through every primitive of the pipeline
    /// (Algorithm 1's inner loop). Returns the chunk's transfer/compute
    /// cost pair for the model's makespan computation, alongside the
    /// fault-free modeled duration the watchdog budgets against.
    fn run_one_chunk(
        &mut self,
        stream: &mut Stream,
        run: &mut RunState,
        chunk: Chunk,
    ) -> Result<ChunkOutcome> {
        let (graph, pipeline) = (stream.graph, stream.pipeline);
        let inputs = run.inputs;
        let slot = chunk.index % stream.slots;
        let mut outcome = ChunkOutcome::default();

        // Upload this chunk into the staging buffers of every device that
        // consumes it, verifying each transfer's checksum end-to-end.
        let mut uploaded: HashMap<(usize, DeviceId), BufferId> = HashMap::new();
        for (input_idx, payload) in chunk.payloads {
            let mut devices_for_input: Vec<DeviceId> = stream
                .staging
                .keys()
                .filter(|(i, _, s)| *i == input_idx && *s == slot)
                .map(|(_, d, _)| *d)
                .collect();
            devices_for_input.sort_unstable();
            for dev_id in devices_for_input {
                let id = stream.staging[&(input_idx, dev_id, slot)];
                // A residency-cached copy of the scan column serves the
                // chunk with a device-internal copy instead of a fresh
                // host→device upload; otherwise fall back to the verified
                // transfer path.
                let gi = &graph.inputs()[input_idx];
                let from_cache = match inputs.get(&gi.name) {
                    Some(col) => run.hub.stage_chunk_from_cache(
                        &mut self.devices,
                        dev_id,
                        id,
                        &gi.name,
                        col,
                        chunk.offset,
                        chunk.len,
                    )?,
                    None => false,
                };
                if !from_cache {
                    run.hub
                        .place_verified(&mut self.devices, dev_id, id, payload.clone(), 0)?;
                }
                uploaded.insert((input_idx, dev_id), id);
                outcome.add(run.charge(self.devices.get_mut(dev_id)?.as_mut()));
            }
        }

        // Per-chunk scratch allocation for the naive chunked model
        // (Algorithm 1 calls prepare_memory inside the loop).
        let mut chunk_scratch: Vec<(DataRef, BufferId)> = Vec::new();
        if !run.cfg.stage_once {
            for &node_id in &pipeline.nodes {
                let node = graph.node(node_id).clone();
                if node.kind.is_pipeline_breaker() {
                    continue;
                }
                for (port, r) in node.output_refs() {
                    let semantic = graph.semantic_of(r);
                    let id = run.hub.prepare_output_buffer(
                        &mut self.devices,
                        &node,
                        port,
                        semantic,
                        chunk.len,
                    )?;
                    stream.scratch.insert(r, id);
                    chunk_scratch.push((r, id));
                }
                outcome.add(run.charge(self.devices.get_mut(node.device)?.as_mut()));
            }
        }

        // Execute the pipeline's primitives over this chunk.
        let scan = pipeline.scan.as_deref();
        for &node_id in &pipeline.nodes {
            let node = graph.node(node_id).clone();
            let in_ids = self.bind_inputs(graph, &node, run, scan, &uploaded, &stream.scratch)?;
            let mut out_ids = Vec::with_capacity(node.output_count);
            for (_, r) in node.output_refs() {
                if let Some(&id) = stream.scratch.get(&r) {
                    out_ids.push(id);
                } else if let Some(id) = run.hub.resident(r, node.device) {
                    out_ids.push(id); // breaker accumulator
                } else {
                    return Err(ExecError::Internal(format!(
                        "output {r:?} has no buffer (node `{}`)",
                        node.label
                    )));
                }
            }
            let saved = self.execute_node(&node, &in_ids, &out_ids)?;
            run.stats.fusion_saved_transfer_ns += saved;
            Self::note_intermediates(graph, &node, chunk.len, &mut run.stats);
            let lanes = run.charge(self.devices.get_mut(node.device)?.as_mut());
            outcome.add(lanes);
            run.stats.record_primitive(&node.label, lanes.compute);

            // Escaped scratch: pull this chunk's result back to the host
            // through the checksum-verified path.
            for (_, r) in node.output_refs() {
                if !node.kind.is_pipeline_breaker() && run.escaping.contains(&r) {
                    let id = stream.scratch[&r];
                    let payload =
                        run.hub
                            .retrieve_verified(&mut self.devices, node.device, id, None, 0)?;
                    let semantic = graph.semantic_of(r);
                    run.hub
                        .host_accumulate(r, semantic, payload, chunk.offset, chunk.len)?;
                    outcome.add(run.charge(self.devices.get_mut(node.device)?.as_mut()));
                }
            }
        }

        // Naive chunked model frees its per-chunk scratch again. Going
        // through `release` untracks the ids, so the final sweep never sees
        // (and double-deletes) buffers that died inside the chunk loop.
        for (r, id) in chunk_scratch {
            let dev_id = output_device(graph, r);
            run.hub.release(&mut self.devices, dev_id, id)?;
            stream.scratch.remove(&r);
            outcome.add(run.charge(self.devices.get_mut(dev_id)?.as_mut()));
        }
        Ok(outcome)
    }

    /// Binds `node`'s inputs to buffer ids on `node.device`: columns of the
    /// streamed `scan` come from this chunk's `staged` uploads (per input
    /// and device), outputs of the same pipeline from `local`; any other
    /// input is placed whole (reused on later chunks via the residency map)
    /// and any other output routed from wherever it was materialized.
    fn bind_inputs(
        &mut self,
        graph: &PrimitiveGraph,
        node: &PrimitiveNode,
        run: &mut RunState,
        scan: Option<&str>,
        staged: &HashMap<(usize, DeviceId), BufferId>,
        local: &HashMap<DataRef, BufferId>,
    ) -> Result<Vec<BufferId>> {
        let mut in_ids = Vec::with_capacity(node.inputs.len());
        for &input in &node.inputs {
            let id = match input {
                DataRef::Input(i) => {
                    let gi = &graph.inputs()[i];
                    if scan.is_some() && gi.scan.as_deref() == scan {
                        *staged.get(&(i, node.device)).ok_or_else(|| {
                            ExecError::Internal(format!(
                                "no staged chunk for input #{i} on {}",
                                node.device
                            ))
                        })?
                    } else {
                        let col = run
                            .inputs
                            .get(&gi.name)
                            .ok_or_else(|| ExecError::MissingInput(gi.name.clone()))?;
                        run.hub.load_whole_input(
                            &mut self.devices,
                            input,
                            node.device,
                            &gi.name,
                            col,
                        )?
                    }
                }
                DataRef::Output { .. } => match local.get(&input) {
                    Some(&id) => id,
                    None => run.hub.router(&mut self.devices, input, node.device)?,
                },
            };
            in_ids.push(id);
        }
        Ok(in_ids)
    }

    // ---- straggler watchdog & hedged execution ---------------------------

    /// Post-chunk watchdog check (the tentpole of the straggler tolerance):
    /// a chunk whose modeled duration overran `watchdog_multiplier ×` its
    /// fault-free expectation feeds the offending device's latency EWMA and
    /// races a hedged duplicate on the best alternate device.
    ///
    /// The race is scored on the simulated timeline: the hedge launches when
    /// the watchdog budget expires, so it wins when `budget + hedge_cost <
    /// primary_cost`. Data is always committed from the primary (kernels are
    /// deterministic, so both copies are identical — only the *time* is
    /// rescued); the hedge's allocations are reclaimed either way. Returns
    /// the chunk cost the makespan should see and the device time charged
    /// to the owning query (winner cost plus all hedge work).
    fn watchdog_and_hedge(
        &mut self,
        stream: &Stream,
        run: &mut RunState,
        outcome: ChunkOutcome,
        offset: usize,
        len: usize,
    ) -> (ChunkCost, f64) {
        let actual = outcome.cost.transfer_ns + outcome.cost.compute_ns;
        let Some(mult) = self.config.watchdog_multiplier else {
            return (outcome.cost, actual);
        };
        let mult = mult.max(1.0);
        let clean = outcome.clean_ns;
        if clean <= 0.0 || actual <= mult * clean {
            return (outcome.cost, actual);
        }
        // Watchdog fired: the chunk straggled past its budget.
        run.stats.watchdog_fires += 1;
        let budget_ns = mult * clean;
        let pipeline = stream.pipeline;
        let primary = stream.graph.node(pipeline.nodes[0]).device;
        if self.health.record_latency_overrun(primary, clean, actual) {
            run.stats.breaker_trips += 1;
        }
        let est_bytes = (len.max(1) * 8) as u64;
        let (alt, _) = self.rank_devices(stream.graph, &pipeline.nodes, primary, est_bytes);
        let Some(alt) = alt else {
            // No alternate device can run this pipeline: the overrun is
            // recorded but the straggler's result stands.
            return (outcome.cost, actual);
        };
        run.stats.hedged_launches += 1;
        match self.hedge_chunk(stream, run, alt, offset, len) {
            Ok(hedge) => {
                let hedge_actual = hedge.transfer_ns + hedge.compute_ns;
                if budget_ns + hedge_actual < actual {
                    // The duplicate finished first: the chunk completes when
                    // the hedge does, and the straggling primary is cancelled
                    // at that instant — so the query is charged the winner's
                    // timeline (primary ran budget + hedge_actual before the
                    // cancel) plus the hedge device's own work.
                    run.stats.hedge_wins += 1;
                    let winner = ChunkCost {
                        transfer_ns: hedge.transfer_ns + budget_ns,
                        compute_ns: hedge.compute_ns,
                    };
                    (winner, budget_ns + 2.0 * hedge_actual)
                } else {
                    // The primary beat the hedge after all; the duplicate's
                    // work is still honest device time the query consumed.
                    (outcome.cost, actual + hedge_actual)
                }
            }
            // A failed hedge never fails the query — the primary's result
            // is already committed.
            Err(_) => (outcome.cost, actual),
        }
    }

    /// Runs a hedged duplicate of the chunk `offset..offset + len` on
    /// `alt`, sandboxed: temporary staging re-sliced from the scan columns,
    /// fresh output buffers, nothing registered as resident, and every
    /// allocation rolled back before returning — the primary's committed
    /// data is untouched whether the hedge wins or loses.
    ///
    /// Mirrors the device-side work of the chunk (staging uploads, scratch,
    /// kernels); host accumulation of escaped outputs stays with the
    /// primary. Returns the duplicate's modeled cost for the race.
    fn hedge_chunk(
        &mut self,
        stream: &Stream,
        run: &mut RunState,
        alt: DeviceId,
        offset: usize,
        len: usize,
    ) -> Result<ChunkCost> {
        let (graph, pipeline) = (stream.graph, stream.pipeline);
        let mark = run.hub.mark();
        let result = (|| -> Result<()> {
            // Stage the scan chunk on the hedge device (verified, like the
            // primary's uploads).
            let mut staged: HashMap<(usize, DeviceId), BufferId> = HashMap::new();
            for (input_idx, payload) in slice_scan(&stream.scan_cols, offset, len) {
                let id = run.hub.fresh_id();
                self.devices
                    .get_mut(alt)?
                    .prepare_memory(id, (len.max(1) * 8) as u64)?;
                run.hub.track_created(alt, id);
                run.hub
                    .place_verified(&mut self.devices, alt, id, payload, 0)?;
                staged.insert((input_idx, alt), id);
            }
            // Mirror the pipeline's nodes onto the hedge device.
            let mut hedge_out: HashMap<DataRef, BufferId> = HashMap::new();
            for &node_id in &pipeline.nodes {
                let mut node = graph.node(node_id).clone();
                node.device = alt;
                let scan = pipeline.scan.as_deref();
                let in_ids = self.bind_inputs(graph, &node, run, scan, &staged, &hedge_out)?;
                let mut out_ids = Vec::with_capacity(node.output_count);
                for (port, r) in node.output_refs() {
                    let semantic = graph.semantic_of(r);
                    let id = run.hub.prepare_output_buffer(
                        &mut self.devices,
                        &node,
                        port,
                        semantic,
                        len,
                    )?;
                    hedge_out.insert(r, id);
                    out_ids.push(id);
                }
                // The hedge is a duplicate: its modeled fused saving is not
                // added to the query's counter.
                self.execute_node(&node, &in_ids, &out_ids)?;
            }
            Ok(())
        })();
        // Everything the mirror burned — on the hedge device and on any
        // source device the router read from — is the duplicate's cost,
        // billed to the stats lanes like all other work.
        let mut outcome = ChunkOutcome::default();
        for dev_id in self.devices.ids() {
            if let Ok(dev) = self.devices.get_mut(dev_id) {
                outcome.add(run.charge(dev.as_mut()));
            }
        }
        // Winner or loser, the duplicate's allocations are reclaimed (and
        // its residency entries dropped); the reclaim itself is billed like
        // any unwind.
        run.hub.rollback_to(&mut self.devices, mark);
        for dev_id in self.devices.ids() {
            if let Ok(dev) = self.devices.get_mut(dev_id) {
                run.drain(dev.as_mut());
            }
        }
        result.map(|()| outcome.cost)
    }

    // ---- shared pieces ----------------------------------------------------

    /// Per-node-execution intermediate accounting: bytes flowing through
    /// materialized non-breaker outputs (`intermediate_bytes`) and the
    /// interior bytes fused chains kept in kernel-local memory instead
    /// (`intermediates_elided_bytes`). Streaming paths call this once per
    /// chunk with the chunk length; whole mode once with the input rows.
    fn note_intermediates(
        graph: &PrimitiveGraph,
        node: &PrimitiveNode,
        rows: usize,
        stats: &mut ExecutionStats,
    ) {
        if !node.kind.is_pipeline_breaker() {
            for (_, r) in node.output_refs() {
                let semantic = graph.semantic_of(r);
                stats.intermediate_bytes +=
                    adamant_task::container::DataContainer::estimate_output_bytes(semantic, rows);
            }
        }
        stats.intermediates_elided_bytes += crate::fusion::elided_bytes(&node.params, rows);
    }

    /// Resolves and runs one node's kernel. Returns the modeled nanoseconds
    /// a fused node saved over launching its stages individually (`0.0` for
    /// ordinary nodes, or when the device exposes no cost model).
    fn execute_node(
        &mut self,
        node: &PrimitiveNode,
        in_ids: &[BufferId],
        out_ids: &[BufferId],
    ) -> Result<f64> {
        let sdk = self.devices.get(node.device)?.info().sdk;
        let container = self
            .tasks
            .resolve(node.kind, sdk, node.variant.as_deref())
            .ok_or_else(|| ExecError::NoImplementation {
                primitive: node.kind.to_string(),
                sdk: sdk.to_string(),
                variant: node
                    .variant
                    .clone()
                    .unwrap_or_else(|| "default".to_string()),
            })?;
        let mut buffers = in_ids.to_vec();
        buffers.extend_from_slice(out_ids);
        let spec = ExecuteSpec::new(container.kernel_name(), buffers, node.params.to_scalars());
        let kstats = self
            .devices
            .get_mut(node.device)?
            .execute(&spec)
            .map_err(|e| ExecError::KernelFailed {
                device: node.device,
                kernel: spec.kernel.clone(),
                source: e,
            })?;
        if let crate::graph::NodeParams::Fused { stages, .. } = &node.params {
            if !kstats.stages.is_empty() {
                if let Some(cost) = self.devices.get(node.device)?.cost_model() {
                    return Ok(crate::fusion::fused_saved_ns(
                        cost,
                        stages,
                        &kstats.stages,
                        spec.arg_count(),
                    ));
                }
            }
        }
        Ok(0.0)
    }

    fn collect_outputs(
        &mut self,
        graph: &PrimitiveGraph,
        run: &mut RunState,
    ) -> Result<QueryOutput> {
        let mut out = QueryOutput::new();
        for (name, r) in graph.outputs() {
            if let Some(acc) = run.hub.take_host(*r) {
                out.insert(name.clone(), OutputData::from_buffer(acc.into_buffer()));
                continue;
            }
            // Find any device holding it.
            let mut found = false;
            for dev_id in self.devices.ids() {
                if let Some(id) = run.hub.resident(*r, dev_id) {
                    let payload =
                        run.hub
                            .retrieve_verified(&mut self.devices, dev_id, id, None, 0)?;
                    run.drain(self.devices.get_mut(dev_id)?.as_mut());
                    out.insert(name.clone(), OutputData::from_buffer(payload));
                    found = true;
                    break;
                }
            }
            if !found {
                // Zero-row streaming run: nothing was ever produced.
                let semantic = graph.semantic_of(*r);
                let empty = match semantic {
                    DataSemantic::Position => OutputData::U32(Vec::new()),
                    DataSemantic::Bitmap => OutputData::BitWords(Vec::new()),
                    _ => OutputData::I64(Vec::new()),
                };
                out.insert(name.clone(), empty);
            }
        }
        Ok(out)
    }
}

/// What one streamed chunk produced for the accounting layer: its modeled
/// cost pair (the makespan contribution) and the fault-free modeled
/// duration of the same work, which the straggler watchdog budgets
/// against.
#[derive(Default)]
struct ChunkOutcome {
    cost: ChunkCost,
    clean_ns: f64,
}

impl ChunkOutcome {
    /// Adds drained lanes: transfer and other time both occupy the copy
    /// side of the chunk.
    fn add(&mut self, lanes: Lanes) {
        self.cost.transfer_ns += lanes.transfer + lanes.other;
        self.cost.compute_ns += lanes.compute;
        self.clean_ns += lanes.clean;
    }
}

/// Modeled time drained from one device clock, split by lane, plus the
/// fault-free modeled sum of the same events (the straggler watchdog's
/// baseline).
#[derive(Clone, Copy, Default)]
struct Lanes {
    transfer: f64,
    compute: f64,
    other: f64,
    clean: f64,
}

/// One chunk of the scan, sliced on the transfer side for the execute
/// side.
struct Chunk {
    /// 0-based position in the attempt's chunk sequence.
    index: usize,
    /// First scan row.
    offset: usize,
    len: usize,
    /// `(graph input index, rows offset..offset + len)` per scan column.
    payloads: Vec<(usize, BufferData)>,
}

/// The chunks of one streaming attempt from scan row `start` on, sized by
/// `schedule`.
fn slice_chunks(
    cols: Vec<(usize, Arc<Vec<i64>>)>,
    schedule: ChunkSchedule,
    start: usize,
    rows: usize,
) -> impl Iterator<Item = Chunk> + Send {
    let (mut index, mut offset) = (0, start);
    std::iter::from_fn(move || {
        (offset < rows).then(|| {
            let len = schedule.rows_for(index).min(rows - offset);
            let chunk = Chunk {
                index,
                offset,
                len,
                payloads: slice_scan(&cols, offset, len),
            };
            index += 1;
            offset += len;
            chunk
        })
    })
}

/// Rows `offset..offset + len` of each scan column.
fn slice_scan(
    cols: &[(usize, Arc<Vec<i64>>)],
    offset: usize,
    len: usize,
) -> Vec<(usize, BufferData)> {
    cols.iter()
        .map(|(idx, col)| (*idx, BufferData::I64(col[offset..offset + len].to_vec())))
        .collect()
}

/// Pipeline-scoped state of one streaming attempt.
struct Stream<'g> {
    graph: &'g PrimitiveGraph,
    pipeline: &'g Pipeline,
    /// The scan columns the pipeline streams, by graph input index.
    scan_cols: Vec<(usize, Arc<Vec<i64>>)>,
    /// Staging buffers per (scan input, consuming device, slot).
    staging: HashMap<(usize, DeviceId, usize), BufferId>,
    /// Staging slots per (scan input, device); chunk `i` uses slot
    /// `i % slots`.
    slots: usize,
    /// Same-pipeline non-breaker outputs.
    scratch: HashMap<DataRef, BufferId>,
}

/// Everything one [`Executor::run_with_deadline`] call threads through its
/// loops. Lives only for the duration of that call.
struct RunState<'a> {
    inputs: &'a QueryInputs,
    cfg: ModelConfig,
    hub: DataTransferHub,
    stats: ExecutionStats,
    /// Modeled time on the serial timeline.
    serial_ns: f64,
    /// Makespans of the overlapped chunk loops.
    overlap_ns: f64,
    /// Streamed outputs consumed outside their pipeline (see
    /// [`escaping_refs`]).
    escaping: HashSet<DataRef>,
    deadline_ns: Option<f64>,
    cancel: CancelToken,
    ckpt: CheckpointState,
    /// Each device's fault counter when the run began, so the stats report
    /// this run's injections only.
    fault_base: BTreeMap<DeviceId, u64>,
}

impl RunState<'_> {
    /// Cooperative check: called between chunks, between whole-mode nodes
    /// and before each recovery attempt. The modeled time spent so far is
    /// the run's timeline plus `streamed_ns` of the current chunk loop.
    fn check(&mut self, streamed_ns: f64) -> Result<()> {
        if self.cancel.is_cancelled() {
            return Err(ExecError::Cancelled);
        }
        let spent_ns = self.serial_ns + self.overlap_ns + streamed_ns;
        if let Some(budget_ns) = self.deadline_ns {
            if spent_ns > budget_ns {
                self.stats.deadline_aborts += 1;
                return Err(ExecError::DeadlineExceeded {
                    budget_ns,
                    spent_ns,
                });
            }
        }
        Ok(())
    }

    /// The stats lanes' total (`transfer + compute + other`).
    fn lanes_ns(&self) -> f64 {
        self.stats.transfer_ns + self.stats.compute_ns + self.stats.other_ns
    }

    /// Drains a device's events, folding everything into the serial total
    /// and the stats lanes.
    fn drain(&mut self, dev: &mut dyn Device) {
        for e in dev.clock_mut().drain_events() {
            self.serial_ns += e.duration_ns;
            match e.lane {
                Lane::TransferH2D | Lane::TransferD2H => self.stats.transfer_ns += e.duration_ns,
                Lane::Compute => self.stats.compute_ns += e.duration_ns,
                _ => self.stats.other_ns += e.duration_ns,
            }
        }
    }

    /// Drains a device's events into the stats lanes and returns them,
    /// without adding to the serial total (the caller attributes them to a
    /// chunk or a whole-mode slice).
    fn charge(&mut self, dev: &mut dyn Device) -> Lanes {
        let mut lanes = Lanes::default();
        for e in dev.clock_mut().drain_events() {
            match e.lane {
                Lane::TransferH2D | Lane::TransferD2H => lanes.transfer += e.duration_ns,
                Lane::Compute => lanes.compute += e.duration_ns,
                _ => lanes.other += e.duration_ns,
            }
            lanes.clean += e.clean_ns;
        }
        self.stats.transfer_ns += lanes.transfer;
        self.stats.other_ns += lanes.other;
        self.stats.compute_ns += lanes.compute;
        lanes
    }

    /// Folds one device's run totals — pool peak, bytes moved and faults
    /// injected since the run began — into the stats. Called once per
    /// device: for a dead one when it is unplugged, for the survivors at
    /// the end of the run.
    fn fold_device(&mut self, id: DeviceId, dev: &dyn Device) {
        let name = &dev.info().name;
        let stats = &mut self.stats;
        stats
            .peak_device_bytes
            .insert(name.clone(), dev.pool().peak());
        stats.bytes_h2d += dev.clock().bytes_h2d();
        stats.bytes_d2h += dev.clock().bytes_d2h();
        let base = self.fault_base.remove(&id).unwrap_or(0);
        let delta = dev.fault_counters().total().saturating_sub(base);
        if delta > 0 {
            stats.device_faults.insert(name.clone(), delta);
        }
    }
}

/// Per-run checkpoint machinery: the configuration, the latest sealed
/// snapshot, the cost-policy bookkeeping, and the resume cursor armed by
/// `handle_device_loss` for the next restart-loop iteration. Lives only for
/// the duration of one `run_with_deadline` call, so every byte of snapshot
/// storage is released when the run returns — the no-leak invariant covers
/// checkpoints too.
struct CheckpointState {
    cfg: CheckpointConfig,
    latest: Option<QueryCheckpoint>,
    /// Stats-lane total (`transfer + compute + other`) at the last capture:
    /// the difference to the current total is the modeled re-execution cost
    /// a death right now would forfeit.
    lanes_mark: f64,
    /// Chunks streamed since the last considered boundary (capture sites
    /// are every `cfg.chunk_interval`-th chunk).
    chunks_since_consider: usize,
    /// Chunks whose results the current attempt lineage already holds (the
    /// next snapshot records this as what a resume may skip).
    chunks_done: usize,
    /// Pipelines fully completed in the current attempt lineage.
    pipelines_done: usize,
    /// Armed by a successful checkpoint restore; consumed by the next
    /// restart-loop iteration.
    cursor: Option<ResumeCursor>,
}

impl CheckpointState {
    fn new(cfg: CheckpointConfig) -> Self {
        CheckpointState {
            cfg,
            latest: None,
            lanes_mark: 0.0,
            chunks_since_consider: 0,
            chunks_done: 0,
            pipelines_done: 0,
            cursor: None,
        }
    }

    /// Advances the chunk counters; returns whether this boundary is a
    /// considered capture site.
    fn on_chunk_completed(&mut self) -> bool {
        self.chunks_done += 1;
        self.chunks_since_consider += 1;
        if self.chunks_since_consider >= self.cfg.chunk_interval.max(1) {
            self.chunks_since_consider = 0;
            true
        } else {
            false
        }
    }
}

/// What a resumed restart-loop iteration needs: how many pipelines to skip,
/// the in-progress pipeline's scan offset, the snapshot's host entries (for
/// re-restore when an intra-pipeline retry discards them), and the seeds
/// for the in-progress pipeline's breaker accumulators.
struct ResumeCursor {
    pipelines_done: usize,
    resume_offset: usize,
    host: Vec<(DataRef, HostAccum, usize)>,
    seed: Vec<(DataRef, BufferData)>,
}

impl ResumeCursor {
    fn seed_for(&self, r: DataRef) -> Option<&BufferData> {
        self.seed.iter().find(|(sr, _)| *sr == r).map(|(_, p)| p)
    }
}

/// The distinct devices `pipeline`'s nodes are placed on, ascending.
fn devices_of(graph: &PrimitiveGraph, pipeline: &Pipeline) -> Vec<DeviceId> {
    let mut devs: Vec<DeviceId> = pipeline
        .nodes
        .iter()
        .map(|&n| graph.node(n).device)
        .collect();
    devs.sort_unstable();
    devs.dedup();
    devs
}

/// The device a node output lives on (scratch and accumulators are always
/// node outputs).
fn output_device(graph: &PrimitiveGraph, r: DataRef) -> DeviceId {
    match r {
        DataRef::Output { node, .. } => graph.node(node).device,
        DataRef::Input(_) => unreachable!("scratch refs are node outputs"),
    }
}

/// The first primitive in the pipeline that must see its scan in a single
/// chunk, if any — halving the chunk size could split a previously
/// single-chunk scan and break it.
fn order_sensitive_kind(graph: &PrimitiveGraph, pipeline: &Pipeline) -> Option<PrimitiveKind> {
    pipeline
        .nodes
        .iter()
        .map(|&n| graph.node(n).kind)
        .find(|k| {
            matches!(
                k,
                PrimitiveKind::Sort | PrimitiveKind::SortAgg | PrimitiveKind::PrefixSum
            )
        })
}

/// Data refs produced by non-breaker nodes of streaming pipelines that are
/// consumed outside their pipeline (or are graph outputs) — these must be
/// accumulated chunk-by-chunk.
fn escaping_refs(graph: &PrimitiveGraph, pipelines: &PipelineSet) -> HashSet<DataRef> {
    let mut escaping = HashSet::new();
    let is_streamed_scratch = |r: DataRef| -> bool {
        match r {
            DataRef::Output { node, .. } => {
                let n = graph.node(node);
                !n.kind.is_pipeline_breaker()
                    && pipelines.pipelines[pipelines.node_pipeline[node.0]].is_streaming()
            }
            DataRef::Input(_) => false,
        }
    };
    for node in graph.nodes() {
        for &input in &node.inputs {
            if let DataRef::Output { node: src, .. } = input {
                if pipelines.node_pipeline[src.0] != pipelines.node_pipeline[node.id.0]
                    && is_streamed_scratch(input)
                {
                    escaping.insert(input);
                }
            }
        }
    }
    for (_, r) in graph.outputs() {
        if is_streamed_scratch(*r) {
            escaping.insert(*r);
        }
    }
    escaping
}
