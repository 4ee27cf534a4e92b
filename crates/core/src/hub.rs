//! The data transfer hub (paper §III-C).
//!
//! Three responsibilities, matching the paper's description:
//!
//! * `load_data()` — loading (whole) inputs onto a target device;
//! * `router()` — all SDK-to-SDK and device-to-device transfers: it
//!   inspects where a data ref currently lives and produces a buffer on the
//!   requested device, retrieving/placing across the bus or transforming
//!   representations as needed;
//! * `prepare_output_buffer()` — estimating and creating result space for a
//!   primitive, with the correct data semantics (numeric scratch, bitmap
//!   words, position lists, join/aggregation hash tables).
//!
//! The hub also owns the host-side accumulation of streamed scratch results
//! that escape their pipeline (graph outputs or cross-pipeline consumers).

use crate::error::{ExecError, Result};
use crate::graph::{DataRef, NodeParams, PrimitiveNode};
use crate::inputs::BoundColumn;
use crate::residency::ResidencyCache;
use adamant_device::buffer::{BufferData, BufferId};
use adamant_device::clock::Lane;
use adamant_device::device::DeviceId;
use adamant_device::error::DeviceError;
use adamant_device::registry::DeviceRegistry;
use adamant_storage::bitmap::Bitmap;
use adamant_task::container::DataContainer;
use adamant_task::primitive::PrimitiveKind;
use adamant_task::semantics::DataSemantic;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Host-side accumulation of per-chunk results.
///
/// `Clone` so the checkpoint subsystem can snapshot accumulations without
/// disturbing the live copies.
#[derive(Clone, Debug)]
pub enum HostAccum {
    /// Concatenated numeric rows.
    Numeric(Vec<i64>),
    /// Positions rebased to global row numbers.
    Position(Vec<u32>),
    /// A growing bitmap with exact logical length.
    Bitmap(Bitmap),
}

impl HostAccum {
    fn new(semantic: DataSemantic) -> Result<HostAccum> {
        Ok(match semantic {
            DataSemantic::Numeric | DataSemantic::PrefixSum => HostAccum::Numeric(Vec::new()),
            DataSemantic::Position => HostAccum::Position(Vec::new()),
            DataSemantic::Bitmap => HostAccum::Bitmap(Bitmap::new_zeroed(0)),
            other => {
                return Err(ExecError::Internal(format!(
                    "cannot host-accumulate {other} results"
                )))
            }
        })
    }

    fn push_chunk(
        &mut self,
        data: BufferData,
        chunk_offset: usize,
        chunk_len: usize,
    ) -> Result<()> {
        match (self, data) {
            (HostAccum::Numeric(acc), BufferData::I64(v)) => acc.extend_from_slice(&v),
            (HostAccum::Position(acc), BufferData::U32(v)) => {
                // Rebasing to global row numbers must not wrap: a silent
                // overflow would produce positions pointing at the wrong
                // rows, which is far worse than failing the query.
                let base = u32::try_from(chunk_offset).map_err(|_| {
                    ExecError::Internal(format!(
                        "position rebase overflow: chunk offset {chunk_offset} exceeds u32 range"
                    ))
                })?;
                for p in v {
                    let global = p.checked_add(base).ok_or_else(|| {
                        ExecError::Internal(format!(
                            "position rebase overflow: {p} + chunk offset {base} exceeds u32 range"
                        ))
                    })?;
                    acc.push(global);
                }
            }
            (HostAccum::Bitmap(acc), BufferData::BitWords(words)) => {
                let chunk = Bitmap::from_words(words, chunk_len);
                acc.extend_from(&chunk);
            }
            (acc, data) => {
                return Err(ExecError::Internal(format!(
                    "host accumulation kind mismatch: {acc:?} <- {}",
                    data.kind()
                )))
            }
        }
        Ok(())
    }

    /// Finalizes into a device-shaped payload.
    pub fn into_buffer(self) -> BufferData {
        match self {
            HostAccum::Numeric(v) => BufferData::I64(v),
            HostAccum::Position(v) => BufferData::U32(v),
            HostAccum::Bitmap(bm) => BufferData::BitWords(bm.words().to_vec()),
        }
    }

    /// Clones into a device-shaped payload, leaving the accumulation in
    /// place. Used when uploading a host accumulation to a device: the host
    /// copy stays authoritative so a later rollback of the device buffer
    /// never destroys the only copy of the data.
    pub fn to_buffer(&self) -> BufferData {
        match self {
            HostAccum::Numeric(v) => BufferData::I64(v.clone()),
            HostAccum::Position(v) => BufferData::U32(v.clone()),
            HostAccum::Bitmap(bm) => BufferData::BitWords(bm.words().to_vec()),
        }
    }
}

/// Base modeled back-off charged before a checksum-failed transfer is
/// retried; doubles with each further retransmit of the same payload.
const RETRANSMIT_BACKOFF_NS: f64 = 500.0;

/// The hub: buffer-id allocation, residency tracking, routing and output
/// buffer preparation.
#[derive(Debug)]
pub struct DataTransferHub {
    next_id: u64,
    /// Where each materialized data ref lives: `(ref, device) -> buffer`.
    resident: HashMap<(DataRef, DeviceId), BufferId>,
    /// Host-side accumulations of escaped streamed results.
    host: HashMap<DataRef, HostAccum>,
    /// Next expected chunk offset per host accumulation — chunks must
    /// arrive in order, contiguously.
    host_offsets: HashMap<DataRef, usize>,
    /// Every buffer created per device, in creation order. Append-only so
    /// [`DataTransferHub::mark`] positions stay stable; [`Self::release`]
    /// clears `live` membership instead of splicing this list.
    created: Vec<(DeviceId, BufferId)>,
    /// Created buffers not yet freed. The delete phase and rollback only
    /// delete buffers still in here, so a mid-run `release` can never lead
    /// to a double free.
    live: BTreeSet<(DeviceId, BufferId)>,
    /// Reverse residency index: `(device, buffer) -> data refs resident in
    /// it`. Keeps [`Self::release`] O(log n) per buffer instead of a full
    /// scan of the residency map.
    by_buffer: BTreeMap<(DeviceId, BufferId), Vec<DataRef>>,
    /// Work counter for the release paths: entries examined while
    /// untracking. Tests assert bulk eviction does bounded work with this
    /// (a counter, not a wall clock).
    release_probes: u64,
    /// `delete_memory` failures during rollback that were *not* the
    /// tolerated died-mid-allocation case (see
    /// [`DataTransferHub::rollback_to`]).
    rollback_delete_errors: usize,
    /// Devices quarantined by the health registry: the router avoids them
    /// as transfer sources while any healthy copy exists.
    quarantined: BTreeSet<DeviceId>,
    /// Transfers whose source was re-picked away from a quarantined holder.
    quarantine_skips: usize,
    /// Maximum transmissions of one payload before a checksum mismatch
    /// becomes [`ExecError::TransferCorrupted`].
    retransmit_budget: u32,
    /// Retransmits caused by checksum mismatches, per device, since the
    /// last [`DataTransferHub::take_corruption_retransmits`] drain.
    corruption_log: BTreeMap<DeviceId, u64>,
    /// The cross-query residency cache, lent by the executor for the
    /// duration of one run (`None` when caching is disabled).
    cache: Option<ResidencyCache>,
}

impl Default for DataTransferHub {
    fn default() -> Self {
        DataTransferHub {
            next_id: 0,
            resident: HashMap::new(),
            host: HashMap::new(),
            host_offsets: HashMap::new(),
            created: Vec::new(),
            live: BTreeSet::new(),
            by_buffer: BTreeMap::new(),
            release_probes: 0,
            rollback_delete_errors: 0,
            quarantined: BTreeSet::new(),
            quarantine_skips: 0,
            retransmit_budget: 4,
            corruption_log: BTreeMap::new(),
            cache: None,
        }
    }
}

impl DataTransferHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        DataTransferHub::default()
    }

    /// Sets how many times one payload may be (re)transmitted before a
    /// checksum mismatch becomes [`ExecError::TransferCorrupted`]. The
    /// executor wires this to its `RetryPolicy::max_attempts`.
    pub fn set_retransmit_budget(&mut self, budget: u32) {
        self.retransmit_budget = budget.max(1);
    }

    /// Takes (and resets) the per-device counts of retransmits caused by
    /// checksum mismatches, for the run's stats and the health registry.
    pub fn take_corruption_retransmits(&mut self) -> std::collections::BTreeMap<DeviceId, u64> {
        std::mem::take(&mut self.corruption_log)
    }

    /// Checksummed `place_data`: uploads `data`, asks the device to echo the
    /// checksum of what it stored, and retransmits with doubling modeled
    /// back-off on mismatch. After [`Self::set_retransmit_budget`]
    /// transmissions the payload still not arriving intact becomes
    /// [`ExecError::TransferCorrupted`] (callers re-place on another device).
    pub fn place_verified(
        &mut self,
        devices: &mut DeviceRegistry,
        device: DeviceId,
        id: BufferId,
        data: BufferData,
        offset: usize,
    ) -> Result<()> {
        let expected = data.checksum();
        let len = data.len();
        for attempt in 0..self.retransmit_budget.max(1) {
            if attempt > 0 {
                // The link already lied once: wait out a doubling back-off
                // before re-occupying it (charged as copy-engine time, no
                // payload bytes).
                let backoff = RETRANSMIT_BACKOFF_NS * f64::from(1u32 << (attempt - 1).min(16));
                devices.get_mut(device)?.clock_mut().record(
                    Lane::TransferH2D,
                    backoff,
                    0,
                    format!("retransmit backoff {id} (attempt {attempt})"),
                );
            }
            devices
                .get_mut(device)?
                .place_data(id, data.clone(), offset)?;
            let echo = devices
                .get(device)?
                .buffer_checksum(id, Some(len), offset)?;
            if echo == expected {
                return Ok(());
            }
            *self.corruption_log.entry(device).or_insert(0) += 1;
        }
        Err(ExecError::TransferCorrupted { device, buffer: id })
    }

    /// Checksummed `retrieve_data`: reads the payload back, compares its
    /// checksum against the device's echo of what it holds, and re-reads
    /// with doubling modeled back-off on mismatch. Exhausting the budget
    /// becomes [`ExecError::TransferCorrupted`].
    pub fn retrieve_verified(
        &mut self,
        devices: &mut DeviceRegistry,
        device: DeviceId,
        id: BufferId,
        len: Option<usize>,
        offset: usize,
    ) -> Result<BufferData> {
        for attempt in 0..self.retransmit_budget.max(1) {
            if attempt > 0 {
                let backoff = RETRANSMIT_BACKOFF_NS * f64::from(1u32 << (attempt - 1).min(16));
                devices.get_mut(device)?.clock_mut().record(
                    Lane::TransferD2H,
                    backoff,
                    0,
                    format!("retransmit backoff {id} (attempt {attempt})"),
                );
            }
            let payload = devices.get_mut(device)?.retrieve_data(id, len, offset)?;
            let echo = devices
                .get(device)?
                .buffer_checksum(id, Some(payload.len()), offset)?;
            if payload.checksum() == echo {
                return Ok(payload);
            }
            *self.corruption_log.entry(device).or_insert(0) += 1;
        }
        Err(ExecError::TransferCorrupted { device, buffer: id })
    }

    /// Allocates a fresh buffer id (unique across all devices in this run).
    pub fn fresh_id(&mut self) -> BufferId {
        self.next_id += 1;
        BufferId(self.next_id)
    }

    /// Installs the set of quarantined devices the router should avoid as
    /// transfer sources (the executor refreshes this at the start of each
    /// run from the health registry).
    pub fn set_quarantined(&mut self, devices: std::collections::BTreeSet<DeviceId>) {
        self.quarantined = devices;
    }

    /// Takes (and resets) the count of transfers re-sourced away from a
    /// quarantined holder, for the run's stats.
    pub fn take_quarantine_skips(&mut self) -> usize {
        std::mem::take(&mut self.quarantine_skips)
    }

    /// Records that `data` is materialized on `device` under `id`.
    pub fn register_resident(&mut self, data: DataRef, device: DeviceId, id: BufferId) {
        if let Some(old) = self.resident.insert((data, device), id) {
            if old != id {
                if let Some(refs) = self.by_buffer.get_mut(&(device, old)) {
                    refs.retain(|r| *r != data);
                    if refs.is_empty() {
                        self.by_buffer.remove(&(device, old));
                    }
                }
            }
        }
        let refs = self.by_buffer.entry((device, id)).or_default();
        if !refs.contains(&data) {
            refs.push(data);
        }
    }

    /// Records a created buffer for the delete phase.
    pub fn track_created(&mut self, device: DeviceId, id: BufferId) {
        self.created.push((device, id));
        self.live.insert((device, id));
    }

    /// Lends the cross-query residency cache to this hub for one run.
    pub fn install_cache(&mut self, mut cache: ResidencyCache) {
        cache.begin_run();
        self.cache = Some(cache);
    }

    /// Takes the residency cache back at the end of a run.
    pub fn take_cache(&mut self) -> Option<ResidencyCache> {
        self.cache.take()
    }

    /// Whether a residency cache is installed.
    pub fn has_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// Drops every residency-cache entry on `device` (fault recovery:
    /// failed attempt, breaker trip) and purges per-run residency entries
    /// that pointed at the freed buffers. Returns the bytes freed.
    pub fn evict_cache_on(&mut self, devices: &mut DeviceRegistry, device: DeviceId) -> u64 {
        let Some(mut cache) = self.cache.take() else {
            return 0;
        };
        let freed = cache.invalidate_device(devices, device);
        for (d, id) in cache.take_freed() {
            self.untrack_buffer(d, id);
        }
        self.cache = Some(cache);
        freed
    }

    /// Takes (and resets) the count of unexpected `delete_memory` failures
    /// surfaced by rollback, for the run's stats.
    pub fn take_rollback_delete_errors(&mut self) -> usize {
        std::mem::take(&mut self.rollback_delete_errors)
    }

    /// Writes off every buffer on a permanently dead device **without
    /// calling into it**: no `delete_memory`, just bookkeeping. Live
    /// buffers on `dead` are untracked (so rollback and the delete phase
    /// skip them), residency entries pointing at them are dropped,
    /// residency-cache pins on the device are written off the same way, and
    /// the corpse's host-side pool accounting is zeroed so the no-leak
    /// invariant still reconciles.
    ///
    /// Returns `(buffers_written_off, lost_bytes)` where `lost_bytes` is
    /// the pool footprint of the written-off buffers — the data that must
    /// be re-staged from host/survivor copies.
    pub fn write_off_device(
        &mut self,
        devices: &mut DeviceRegistry,
        dead: DeviceId,
    ) -> (usize, u64) {
        let doomed: Vec<BufferId> = self
            .live
            .iter()
            .filter(|(d, _)| *d == dead)
            .map(|&(_, id)| id)
            .collect();
        let mut buffers = 0usize;
        let mut lost_bytes = 0u64;
        for id in doomed {
            buffers += 1;
            if let Ok(dev) = devices.get(dead) {
                if let Ok(buf) = dev.pool().get(id) {
                    lost_bytes += buf.footprint();
                }
            }
            self.untrack_buffer(dead, id);
        }
        if let Some(mut cache) = self.cache.take() {
            cache.write_off_device(dead);
            for (d, id) in cache.take_freed() {
                self.untrack_buffer(d, id);
            }
            self.cache = Some(cache);
        }
        // Host-side accessors still work on the corpse: zero its pool and
        // admission accounting so nothing appears leaked post-mortem.
        if let Ok(dev) = devices.get_mut(dead) {
            let reserved = dev.pool().admission_reserved();
            dev.pool_mut().admission_release(reserved);
            dev.pool_mut().clear();
        }
        (buffers, lost_bytes)
    }

    /// Discards every host accumulation (a whole-graph restart after device
    /// loss re-streams all pipelines from row 0).
    pub fn discard_all_host(&mut self) {
        self.host.clear();
        self.host_offsets.clear();
    }

    /// Clones every host accumulation with its contiguity watermark, sorted
    /// by ref for deterministic checkpoint checksums.
    pub fn snapshot_host(&self) -> Vec<(DataRef, HostAccum, usize)> {
        let mut out: Vec<(DataRef, HostAccum, usize)> = self
            .host
            .iter()
            .map(|(&r, accum)| {
                let watermark = self.host_offsets.get(&r).copied().unwrap_or(0);
                (r, accum.clone(), watermark)
            })
            .collect();
        out.sort_by_key(|(r, _, _)| *r);
        out
    }

    /// Restores host accumulations from a checkpoint snapshot, replacing
    /// whatever partial state a rolled-back attempt left behind. The
    /// watermark re-arms the in-order contiguity check, so the resumed
    /// stream appends exactly where the snapshot left off.
    pub fn restore_host(&mut self, entries: &[(DataRef, HostAccum, usize)]) {
        for (r, accum, watermark) in entries {
            self.host.insert(*r, accum.clone());
            self.host_offsets.insert(*r, *watermark);
        }
    }

    /// Every data ref currently resident on some device, deduplicated and
    /// sorted, each with its lowest-id holder (deterministic). The
    /// checkpoint capture path retrieves these through the verified
    /// transfer path to build the snapshot's resident section.
    pub fn resident_refs(&self) -> Vec<(DataRef, DeviceId, BufferId)> {
        let mut best: BTreeMap<DataRef, (DeviceId, BufferId)> = BTreeMap::new();
        for (&(r, dev), &id) in &self.resident {
            match best.get(&r) {
                Some(&(held, _)) if held <= dev => {}
                _ => {
                    best.insert(r, (dev, id));
                }
            }
        }
        best.into_iter()
            .map(|(r, (dev, id))| (r, dev, id))
            .collect()
    }

    /// Re-materializes a checkpointed payload as a resident buffer on
    /// `device`: allocates, uploads through the verified transfer path, and
    /// registers residency + creation tracking so the normal rollback and
    /// delete phases own the restored buffer like any other.
    pub fn restore_resident(
        &mut self,
        devices: &mut DeviceRegistry,
        data: DataRef,
        device: DeviceId,
        payload: &BufferData,
    ) -> Result<BufferId> {
        let id = self.fresh_id();
        devices
            .get_mut(device)?
            .prepare_memory(id, payload.byte_len().max(8))?;
        self.track_created(device, id);
        self.place_verified(devices, device, id, payload.clone(), 0)?;
        self.register_resident(data, device, id);
        Ok(id)
    }

    /// Entries examined by the release paths so far (bounded-work tests).
    pub fn release_probes(&self) -> u64 {
        self.release_probes
    }

    /// Where `data` is resident on `device`, if it is.
    pub fn resident(&self, data: DataRef, device: DeviceId) -> Option<BufferId> {
        self.resident.get(&(data, device)).copied()
    }

    /// `router()`: produce a buffer holding `data` on `target` (paper: "the
    /// function iterates over all the incoming edges to a primitive and
    /// loads the data to the target device").
    ///
    /// Resolution order: already resident on target → reuse; resident on a
    /// *healthy* device → retrieve there, place on target;
    /// host-accumulated → upload; resident only on quarantined devices →
    /// read through one as a last resort. A host copy always beats a
    /// quarantined holder: the data is intact either way, but reading
    /// through a tripped device keeps it on the critical path and delays
    /// its recovery probe. Transfer costs land on the involved devices'
    /// clocks.
    pub fn router(
        &mut self,
        devices: &mut DeviceRegistry,
        data: DataRef,
        target: DeviceId,
    ) -> Result<BufferId> {
        if let Some(id) = self.resident(data, target) {
            return Ok(id);
        }
        // Find a source device holding it. When several devices hold a
        // copy, pick the lowest device id so the transfer source (and the
        // clocks it charges) is deterministic across runs — HashMap
        // iteration order must never leak into the execution.
        let mut holders: Vec<(DeviceId, BufferId)> = self
            .resident
            .iter()
            .filter(|((r, _), _)| *r == data)
            .map(|((_, d), id)| (*d, *id))
            .collect();
        holders.sort_unstable_by_key(|(d, _)| *d);
        let healthy = holders
            .iter()
            .find(|(d, _)| !self.quarantined.contains(d))
            .copied();
        let source = match healthy {
            Some(h) => Some(h),
            // Every holder is quarantined: prefer the authoritative host
            // copy (if any) over reading through a tripped device.
            None if self.host.contains_key(&data) => None,
            None => holders.first().copied(),
        };
        if let (Some((chosen, _)), Some(&(lowest, _))) = (source, holders.first()) {
            if chosen != lowest {
                self.quarantine_skips += 1;
            }
        }
        if let Some((src_dev, src_id)) = source {
            let payload = self.retrieve_verified(devices, src_dev, src_id, None, 0)?;
            let new_id = self.fresh_id();
            self.track_created(target, new_id);
            self.place_verified(devices, target, new_id, payload, 0)?;
            self.register_resident(data, target, new_id);
            return Ok(new_id);
        }
        if let Some(acc) = self.host.get(&data) {
            // Upload a clone: the host accumulation stays authoritative, so
            // a recovery rollback that deletes the device copy cannot lose
            // the data.
            if !holders.is_empty() {
                // The holders were all quarantined and the host copy won.
                self.quarantine_skips += 1;
            }
            let payload = acc.to_buffer();
            let new_id = self.fresh_id();
            self.track_created(target, new_id);
            self.place_verified(devices, target, new_id, payload, 0)?;
            self.register_resident(data, target, new_id);
            return Ok(new_id);
        }
        Err(ExecError::Internal(format!(
            "router: {data:?} is neither resident nor host-accumulated"
        )))
    }

    /// `load_data()`: places a whole host column onto a device as a
    /// materialized external input.
    ///
    /// With a residency cache installed, the cache is consulted before any
    /// transfer: a valid pin of `name` is served without touching the bus,
    /// and a miss tries to pin the column for future runs (falling back to
    /// an uncached per-run upload when the column does not fit the cache
    /// budget or the device).
    pub fn load_whole_input(
        &mut self,
        devices: &mut DeviceRegistry,
        data: DataRef,
        target: DeviceId,
        name: &str,
        column: &BoundColumn,
    ) -> Result<BufferId> {
        if let Some(id) = self.resident(data, target) {
            return Ok(id);
        }
        if self.cache.is_some() {
            if let Some((id, was_hit)) = self.cache_acquire_whole(devices, target, name, column)? {
                if was_hit {
                    // The whole upload was avoided.
                    let bytes = (column.len() as u64) * 8;
                    let saved = devices
                        .get(target)
                        .map(|d| d.placement_cost_ns(bytes, 0.0))
                        .unwrap_or(0.0);
                    if let Some(cache) = &mut self.cache {
                        cache.note_saved_transfer_ns(saved);
                    }
                }
                self.register_resident(data, target, id);
                return Ok(id);
            }
        }
        let id = self.fresh_id();
        self.track_created(target, id);
        let payload = BufferData::I64(column.values().to_vec());
        self.place_verified(devices, target, id, payload, 0)?;
        self.register_resident(data, target, id);
        Ok(id)
    }

    /// Serves a whole column from the residency cache: `Some((id, true))`
    /// for a pre-existing pin, `Some((id, false))` for a pin created (and
    /// paid for) just now, `Ok(None)` when the cache passed — the caller
    /// uploads uncached. Does not touch the saved-transfer counter; callers
    /// account what they actually avoided.
    fn cache_acquire_whole(
        &mut self,
        devices: &mut DeviceRegistry,
        target: DeviceId,
        name: &str,
        column: &BoundColumn,
    ) -> Result<Option<(BufferId, bool)>> {
        let bytes = (column.len() as u64) * 8;
        let transfer_ns = devices
            .get(target)
            .map(|d| d.placement_cost_ns(bytes, 0.0))
            .unwrap_or(0.0);
        let mut cache = self.cache.take().expect("caller checked");
        if let Some(id) = cache.lookup(devices, target, name, column) {
            self.absorb_cache_frees(&mut cache);
            self.cache = Some(cache);
            return Ok(Some((id, true)));
        }
        let Some(id) = cache.begin_pin(devices, target, column.values()) else {
            self.absorb_cache_frees(&mut cache);
            self.cache = Some(cache);
            return Ok(None);
        };
        self.absorb_cache_frees(&mut cache);
        let payload = BufferData::I64(column.values().to_vec());
        match self.place_verified(devices, target, id, payload, 0) {
            Ok(()) => {
                cache.commit_pin(target, name, column, id, transfer_ns);
                self.cache = Some(cache);
                Ok(Some((id, false)))
            }
            Err(e) => {
                cache.abort_pin(devices, target, id, bytes);
                self.cache = Some(cache);
                if matches!(
                    e,
                    ExecError::Device(
                        DeviceError::OutOfMemory { .. } | DeviceError::OutOfPinnedMemory { .. }
                    )
                ) {
                    // Admission said yes but the pool is genuinely full —
                    // fall back to the uncached path (which may still OOM,
                    // surfacing through the normal recovery machinery).
                    Ok(None)
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Stages one chunk of a scan column into `staging` from a cached pin
    /// of the whole column, via a device-internal `create_chunk` copy
    /// instead of a host→device upload. On the first touch of an uncached
    /// column the whole column is pinned (once), so this and every later
    /// chunk stage device-internally.
    ///
    /// Returns `false` when the cache is absent or passed — the caller
    /// uploads the chunk payload as usual.
    #[allow(clippy::too_many_arguments)]
    pub fn stage_chunk_from_cache(
        &mut self,
        devices: &mut DeviceRegistry,
        device: DeviceId,
        staging: BufferId,
        name: &str,
        column: &BoundColumn,
        offset: usize,
        len: usize,
    ) -> Result<bool> {
        if self.cache.is_none() || len == 0 {
            return Ok(false);
        }
        let src = match self.cache_acquire_whole(devices, device, name, column)? {
            Some((id, _)) => id,
            None => return Ok(false),
        };
        let chunk_bytes = (len as u64) * 8;
        let saved = devices
            .get(device)
            .map(|d| d.placement_cost_ns(chunk_bytes, 0.0))
            .unwrap_or(0.0);
        let dev = devices.get_mut(device)?;
        // The staging slot was pre-allocated for uploads; re-materialize it
        // as a device-internal sub-buffer of the pinned column.
        match dev.delete_memory(staging) {
            Ok(()) | Err(DeviceError::UnknownBuffer(_)) => {}
            Err(e) => return Err(e.into()),
        }
        dev.create_chunk(src, staging, offset, len)?;
        if let Some(cache) = &mut self.cache {
            cache.note_saved_transfer_ns(saved);
        }
        Ok(true)
    }

    /// Purges per-run residency entries pointing at buffers the cache just
    /// freed (eviction under pressure mid-run must not leave dangling ids).
    fn absorb_cache_frees(&mut self, cache: &mut ResidencyCache) {
        for (d, id) in cache.take_freed() {
            self.untrack_buffer(d, id);
        }
    }

    /// Appends one chunk's worth of an escaped scratch result to the host
    /// accumulation.
    ///
    /// Chunks must arrive in order and contiguously: `chunk_offset` has to
    /// equal the end of the previous chunk (0 for the first). Out-of-order
    /// arrival means an execution-model bug and is rejected rather than
    /// silently producing misordered results.
    pub fn host_accumulate(
        &mut self,
        data: DataRef,
        semantic: DataSemantic,
        payload: BufferData,
        chunk_offset: usize,
        chunk_len: usize,
    ) -> Result<()> {
        let expected = self.host_offsets.get(&data).copied().unwrap_or(0);
        if chunk_offset != expected {
            return Err(ExecError::Internal(format!(
                "out-of-order host accumulation for {data:?}: \
                 got chunk offset {chunk_offset}, expected {expected}"
            )));
        }
        let entry = match self.host.entry(data) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(HostAccum::new(semantic)?),
        };
        entry.push_chunk(payload, chunk_offset, chunk_len)?;
        self.host_offsets.insert(data, chunk_offset + chunk_len);
        Ok(())
    }

    /// Takes a finished host accumulation (for graph outputs).
    pub fn take_host(&mut self, data: DataRef) -> Option<HostAccum> {
        self.host_offsets.remove(&data);
        self.host.remove(&data)
    }

    /// Discards a partial host accumulation (recovery: a failed pipeline
    /// attempt is rolled back before the retry re-streams from row 0).
    pub fn discard_host(&mut self, data: DataRef) {
        self.host_offsets.remove(&data);
        self.host.remove(&data);
    }

    /// Whether a host accumulation exists for `data`.
    pub fn has_host(&self, data: DataRef) -> bool {
        self.host.contains_key(&data)
    }

    /// `prepare_output_buffer()`: creates result space for output `port` of
    /// `node` on its device, sized for `estimate_rows` input rows, with the
    /// correct data semantics.
    ///
    /// Pipeline-breaker accumulators (hash tables, block-agg states) are
    /// initialized as device structures; everything else is a reserved
    /// scratch region the kernel fills.
    pub fn prepare_output_buffer(
        &mut self,
        devices: &mut DeviceRegistry,
        node: &PrimitiveNode,
        port: usize,
        semantic: DataSemantic,
        estimate_rows: usize,
    ) -> Result<BufferId> {
        let id = self.fresh_id();
        let device = devices.get_mut(node.device)?;
        match (&node.kind, &node.params) {
            (
                PrimitiveKind::HashBuild,
                NodeParams::HashBuild {
                    payload_cols,
                    expected,
                },
            ) => {
                device.init_structure(id, DataContainer::join_table(*expected, *payload_cols))?;
            }
            (
                PrimitiveKind::HashAgg,
                NodeParams::HashAgg {
                    payload_cols,
                    aggs,
                    expected_groups,
                },
            ) => {
                device.init_structure(
                    id,
                    DataContainer::agg_table(*expected_groups, aggs.clone(), *payload_cols),
                )?;
            }
            (PrimitiveKind::AggBlock, params) => {
                // Two accumulator slots `[state, rows]`, pre-set to the
                // aggregate's identity so zero-chunk scans still produce a
                // well-formed result.
                let identity = match params {
                    NodeParams::AggBlock { agg } => agg.identity(),
                    _ => 0,
                };
                device.init_structure(id, BufferData::I64(vec![identity, 0]))?;
            }
            (PrimitiveKind::FusedAgg, NodeParams::Fused { stages, .. }) => {
                // The fused accumulator is whatever the terminal aggregation
                // stage would have gotten unfused; interior stages get
                // nothing at all — that is the fusion win.
                match stages.last().map(|s| s.params.as_ref()) {
                    Some(NodeParams::AggBlock { agg }) => {
                        device.init_structure(id, BufferData::I64(vec![agg.identity(), 0]))?;
                    }
                    Some(NodeParams::HashAgg {
                        payload_cols,
                        aggs,
                        expected_groups,
                    }) => {
                        device.init_structure(
                            id,
                            DataContainer::agg_table(*expected_groups, aggs.clone(), *payload_cols),
                        )?;
                    }
                    _ => {
                        return Err(ExecError::Internal(format!(
                            "fused_agg node `{}` lacks an aggregation terminal stage",
                            node.label
                        )))
                    }
                }
            }
            _ => {
                let bytes = DataContainer::estimate_output_bytes(semantic, estimate_rows).max(8);
                device.prepare_memory(id, bytes)?;
            }
        }
        self.track_created(node.device, id);
        let _ = port;
        Ok(id)
    }

    /// A rollback mark: the number of buffers created so far. Pass it to
    /// [`DataTransferHub::rollback_to`] to free everything created after
    /// this point.
    pub fn mark(&self) -> usize {
        self.created.len()
    }

    /// Frees every buffer created after `mark` (on its owning device) and
    /// drops the matching residency entries. Used by the executor's
    /// recovery path to unwind a failed pipeline attempt.
    ///
    /// Tolerates exactly one failure mode:
    /// [`DeviceError::UnknownBuffer`] — the attempt died mid-allocation, so
    /// the buffer was tracked but never materialized. Any *other*
    /// `delete_memory` error is a real accounting bug (double free, driver
    /// fault) and is counted into `rollback_delete_errors` instead of being
    /// silently swallowed; the executor surfaces the count in
    /// `ExecutionStats`.
    pub fn rollback_to(&mut self, devices: &mut DeviceRegistry, mark: usize) {
        if mark >= self.created.len() {
            return;
        }
        for (dev, id) in self.created.split_off(mark) {
            self.release_probes += 1;
            if !self.live.remove(&(dev, id)) {
                // Already released mid-attempt; nothing to free.
                continue;
            }
            if let Some(refs) = self.by_buffer.remove(&(dev, id)) {
                self.release_probes += refs.len() as u64;
                for r in refs {
                    self.resident.remove(&(r, dev));
                }
            }
            match devices.get_mut(dev) {
                Ok(device) => match device.delete_memory(id) {
                    Ok(()) | Err(DeviceError::UnknownBuffer(_)) => {}
                    Err(_) => self.rollback_delete_errors += 1,
                },
                Err(_) => self.rollback_delete_errors += 1,
            }
        }
    }

    /// Frees one tracked buffer on its owning device, untracking it from
    /// the live set and the residency maps. Unlike the final
    /// [`DataTransferHub::delete_all`] sweep, errors here are real (the
    /// buffer is expected to exist) and are propagated.
    ///
    /// O(log n) in tracked buffers: residency entries are found through the
    /// `(device, id)` reverse index instead of scanning the whole map, so
    /// bulk eviction sweeps stay linear in the buffers released.
    pub fn release(
        &mut self,
        devices: &mut DeviceRegistry,
        device: DeviceId,
        id: BufferId,
    ) -> Result<()> {
        devices.get_mut(device)?.delete_memory(id)?;
        if !self.live.remove(&(device, id)) {
            return Err(ExecError::Internal(format!(
                "release of untracked buffer {id} on {device}"
            )));
        }
        self.untrack_buffer(device, id);
        Ok(())
    }

    /// Batch [`DataTransferHub::release`]: frees many tracked buffers in
    /// one sweep, stopping at the first error.
    pub fn release_many(
        &mut self,
        devices: &mut DeviceRegistry,
        buffers: &[(DeviceId, BufferId)],
    ) -> Result<()> {
        for &(device, id) in buffers {
            self.release(devices, device, id)?;
        }
        Ok(())
    }

    /// Drops residency bookkeeping for `(device, id)` via the reverse
    /// index (the buffer itself is already gone or owned elsewhere).
    fn untrack_buffer(&mut self, device: DeviceId, id: BufferId) {
        self.release_probes += 1;
        self.live.remove(&(device, id));
        if let Some(refs) = self.by_buffer.remove(&(device, id)) {
            self.release_probes += refs.len() as u64;
            for r in refs {
                self.resident.remove(&(r, device));
            }
        }
    }

    /// The delete phase: frees every buffer this hub created that is still
    /// live.
    ///
    /// This is the final idempotent sweep, by design tolerant of buffers
    /// that are already gone (wiped by a device reset). Per-pipeline
    /// cleanup goes through `release`, which *does* surface errors and
    /// clears live membership so this sweep never double-deletes.
    /// Residency-cache pins are not created through [`Self::track_created`]
    /// and therefore survive — they belong to the cache, not the run.
    pub fn delete_all(&mut self, devices: &mut DeviceRegistry) {
        for (dev, id) in self.created.drain(..) {
            if !self.live.remove(&(dev, id)) {
                continue;
            }
            if let Ok(device) = devices.get_mut(dev) {
                // Buffers may already be gone if a device was reset.
                let _ = device.delete_memory(id);
            }
        }
        self.resident.clear();
        self.by_buffer.clear();
        self.live.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_device::fault::FaultPlan;
    use adamant_device::profiles::DeviceProfile;

    fn bound(values: &[i64]) -> BoundColumn {
        BoundColumn::new(values.to_vec())
    }

    fn two_devices() -> (DeviceRegistry, DeviceId, DeviceId) {
        let mut reg = DeviceRegistry::new();
        let a = reg.add(Box::new(DeviceProfile::cuda_rtx2080ti().build(DeviceId(0))));
        let b = reg.add(Box::new(DeviceProfile::opencl_cpu_i7().build(DeviceId(1))));
        (reg, a, b)
    }

    #[test]
    fn load_and_route_across_devices() {
        let (mut devices, gpu, cpu) = two_devices();
        let mut hub = DataTransferHub::new();
        let data = DataRef::Input(0);
        let col = bound(&[1, 2, 3]);
        let id_gpu = hub
            .load_whole_input(&mut devices, data, gpu, "in0", &col)
            .unwrap();
        // Second load is a no-op.
        assert_eq!(
            hub.load_whole_input(&mut devices, data, gpu, "in0", &col)
                .unwrap(),
            id_gpu
        );
        // Route to the CPU device: retrieve from GPU, place on CPU.
        let id_cpu = hub.router(&mut devices, data, cpu).unwrap();
        assert_ne!(id_gpu.0, id_cpu.0);
        let payload = devices
            .get_mut(cpu)
            .unwrap()
            .retrieve_data(id_cpu, None, 0)
            .unwrap();
        assert_eq!(payload, BufferData::I64(vec![1, 2, 3]));
        // GPU recorded an extra D2H from the routing.
        assert!(devices.get(gpu).unwrap().clock().bytes_d2h() > 0);
    }

    #[test]
    fn router_unknown_ref_errors() {
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        assert!(hub.router(&mut devices, DataRef::Input(9), gpu).is_err());
    }

    #[test]
    fn host_accumulation_shapes() {
        let mut hub = DataTransferHub::new();
        let r = DataRef::Input(0);
        hub.host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![1, 2]), 0, 2)
            .unwrap();
        hub.host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![3]), 2, 1)
            .unwrap();
        match hub.take_host(r).unwrap() {
            HostAccum::Numeric(v) => assert_eq!(v, vec![1, 2, 3]),
            other => panic!("{other:?}"),
        }

        let p = DataRef::Input(1);
        hub.host_accumulate(p, DataSemantic::Position, BufferData::U32(vec![0, 3]), 0, 4)
            .unwrap();
        hub.host_accumulate(p, DataSemantic::Position, BufferData::U32(vec![1]), 4, 4)
            .unwrap();
        match hub.take_host(p).unwrap() {
            HostAccum::Position(v) => assert_eq!(v, vec![0, 3, 5]),
            other => panic!("{other:?}"),
        }

        let bm = DataRef::Input(2);
        hub.host_accumulate(
            bm,
            DataSemantic::Bitmap,
            BufferData::BitWords(vec![0b1]),
            0,
            3,
        )
        .unwrap();
        hub.host_accumulate(
            bm,
            DataSemantic::Bitmap,
            BufferData::BitWords(vec![0b10]),
            3,
            2,
        )
        .unwrap();
        match hub.take_host(bm).unwrap() {
            HostAccum::Bitmap(b) => {
                assert_eq!(b.len(), 5);
                assert!(b.get(0));
                assert!(b.get(4));
                assert_eq!(b.count_ones(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn accumulation_kind_mismatch_rejected() {
        let mut hub = DataTransferHub::new();
        let r = DataRef::Input(0);
        hub.host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![1]), 0, 1)
            .unwrap();
        assert!(hub
            .host_accumulate(r, DataSemantic::Numeric, BufferData::U32(vec![1]), 1, 1)
            .is_err());
        assert!(hub
            .host_accumulate(
                DataRef::Input(5),
                DataSemantic::HashTable,
                BufferData::I64(vec![]),
                0,
                0
            )
            .is_err());
    }

    #[test]
    fn delete_phase_frees_everything() {
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        hub.load_whole_input(
            &mut devices,
            DataRef::Input(0),
            gpu,
            "in0",
            &bound(&[1, 2, 3]),
        )
        .unwrap();
        assert!(devices.get(gpu).unwrap().pool().used() > 0);
        hub.delete_all(&mut devices);
        assert_eq!(devices.get(gpu).unwrap().pool().used(), 0);
    }

    #[test]
    fn router_source_is_lowest_device_id() {
        // Three devices; the ref is resident on devices 1 and 2. Routing to
        // device 0 must always pull from device 1 — the lowest holder —
        // not whichever the residency map happens to iterate first.
        let mut devices = DeviceRegistry::new();
        let a = devices.add(Box::new(DeviceProfile::cuda_rtx2080ti().build(DeviceId(0))));
        let b = devices.add(Box::new(DeviceProfile::opencl_cpu_i7().build(DeviceId(1))));
        let c = devices.add(Box::new(DeviceProfile::opencl_cpu_i7().build(DeviceId(2))));
        let mut hub = DataTransferHub::new();
        let data = DataRef::Input(0);
        let col = bound(&[7; 64]);
        hub.load_whole_input(&mut devices, data, b, "in0", &col)
            .unwrap();
        hub.load_whole_input(&mut devices, data, c, "in0", &col)
            .unwrap();

        hub.router(&mut devices, data, a).unwrap();
        assert!(devices.get(b).unwrap().clock().bytes_d2h() > 0);
        assert_eq!(devices.get(c).unwrap().clock().bytes_d2h(), 0);
    }

    #[test]
    fn host_accumulation_rejects_out_of_order_chunks() {
        let mut hub = DataTransferHub::new();
        let r = DataRef::Input(0);
        hub.host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![1, 2]), 0, 2)
            .unwrap();
        // Replay of an already-consumed offset.
        assert!(hub
            .host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![9]), 1, 1)
            .is_err());
        // Gap: skipping ahead is just as wrong.
        assert!(hub
            .host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![9]), 4, 1)
            .is_err());
        // The expected offset still works.
        hub.host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![3]), 2, 1)
            .unwrap();
        match hub.take_host(r).unwrap() {
            HostAccum::Numeric(v) => assert_eq!(v, vec![1, 2, 3]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn position_rebase_overflow_is_rejected() {
        let mut hub = DataTransferHub::new();
        let r = DataRef::Input(0);
        // Walk the expected offset to the edge of the u32 range with an
        // empty chunk, then offer positions that would wrap when rebased.
        let edge = u32::MAX as usize;
        hub.host_accumulate(r, DataSemantic::Position, BufferData::U32(vec![]), 0, edge)
            .unwrap();
        assert!(hub
            .host_accumulate(r, DataSemantic::Position, BufferData::U32(vec![5]), edge, 1)
            .is_err());

        // A chunk offset that itself exceeds u32 is rejected outright.
        let far = edge + 10;
        let s = DataRef::Input(1);
        hub.host_accumulate(s, DataSemantic::Position, BufferData::U32(vec![]), 0, far)
            .unwrap();
        assert!(hub
            .host_accumulate(s, DataSemantic::Position, BufferData::U32(vec![0]), far, 1)
            .is_err());
    }

    #[test]
    fn rollback_frees_only_buffers_after_mark() {
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        let kept = DataRef::Input(0);
        hub.load_whole_input(&mut devices, kept, gpu, "in0", &bound(&[1, 2, 3]))
            .unwrap();
        let used_before = devices.get(gpu).unwrap().pool().used();
        let mark = hub.mark();

        let rolled = DataRef::Input(1);
        hub.load_whole_input(&mut devices, rolled, gpu, "in0", &bound(&[4; 100]))
            .unwrap();
        assert!(devices.get(gpu).unwrap().pool().used() > used_before);

        hub.rollback_to(&mut devices, mark);
        assert_eq!(devices.get(gpu).unwrap().pool().used(), used_before);
        // The pre-mark buffer survived, the post-mark one is untracked.
        assert!(hub.resident(kept, gpu).is_some());
        assert!(hub.resident(rolled, gpu).is_none());
        // And the sweep still releases the survivor exactly once.
        hub.delete_all(&mut devices);
        assert_eq!(devices.get(gpu).unwrap().pool().used(), 0);
    }

    #[test]
    fn release_untracks_so_delete_all_cannot_double_delete() {
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        let data = DataRef::Input(0);
        let id = hub
            .load_whole_input(&mut devices, data, gpu, "in0", &bound(&[1, 2, 3]))
            .unwrap();
        hub.release(&mut devices, gpu, id).unwrap();
        assert_eq!(devices.get(gpu).unwrap().pool().used(), 0);
        assert!(hub.resident(data, gpu).is_none());
        // Releasing an untracked buffer is an error, not a silent no-op.
        assert!(hub.release(&mut devices, gpu, id).is_err());
        // The final sweep has nothing left referencing the freed id.
        hub.delete_all(&mut devices);
    }

    #[test]
    fn corrupted_place_is_retransmitted_until_clean() {
        use adamant_device::fault::FaultPlan;
        let (mut devices, gpu, _) = two_devices();
        devices
            .get_mut(gpu)
            .unwrap()
            .set_fault_plan(FaultPlan::none().corrupt_on_place(1));
        let mut hub = DataTransferHub::new();
        let id = hub
            .load_whole_input(
                &mut devices,
                DataRef::Input(0),
                gpu,
                "in0",
                &bound(&[1, 2, 3, 4]),
            )
            .unwrap();
        // The first transmission was corrupted; the hub retransmitted.
        let log = hub.take_corruption_retransmits();
        assert_eq!(log.get(&gpu), Some(&1));
        // What the device now holds is the clean payload.
        let payload = devices
            .get_mut(gpu)
            .unwrap()
            .retrieve_data(id, None, 0)
            .unwrap();
        assert_eq!(payload, BufferData::I64(vec![1, 2, 3, 4]));
        // The drain reset the log.
        assert!(hub.take_corruption_retransmits().is_empty());
    }

    #[test]
    fn corrupted_retrieve_is_reread() {
        use adamant_device::fault::FaultPlan;
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        let id = hub
            .load_whole_input(
                &mut devices,
                DataRef::Input(0),
                gpu,
                "in0",
                &bound(&[9, 8, 7]),
            )
            .unwrap();
        // Corrupt the *next* retrieve only (transfer ordinals count from
        // plan installation).
        devices
            .get_mut(gpu)
            .unwrap()
            .set_fault_plan(FaultPlan::none().corrupt_on_retrieve(1));
        let payload = hub
            .retrieve_verified(&mut devices, gpu, id, None, 0)
            .unwrap();
        assert_eq!(payload, BufferData::I64(vec![9, 8, 7]));
        assert_eq!(hub.take_corruption_retransmits().get(&gpu), Some(&1));
    }

    #[test]
    fn exhausted_retransmit_budget_surfaces_corruption_error() {
        use adamant_device::fault::FaultPlan;
        let (mut devices, gpu, _) = two_devices();
        // Every place is corrupted: scripted ordinals 1..=8 cover the whole
        // budget of 3 transmissions with room to spare.
        let mut plan = FaultPlan::none();
        for n in 1..=8 {
            plan = plan.corrupt_on_place(n);
        }
        devices.get_mut(gpu).unwrap().set_fault_plan(plan);
        let mut hub = DataTransferHub::new();
        hub.set_retransmit_budget(3);
        let before = devices.get(gpu).unwrap().clock().transfer_ns();
        let err = hub
            .load_whole_input(
                &mut devices,
                DataRef::Input(0),
                gpu,
                "in0",
                &bound(&[1, 2, 3]),
            )
            .unwrap_err();
        assert!(
            matches!(err, ExecError::TransferCorrupted { device, .. } if device == gpu),
            "got {err}"
        );
        assert_eq!(hub.take_corruption_retransmits().get(&gpu), Some(&3));
        // Doubling back-off was charged for attempts 2 and 3.
        let spent = devices.get(gpu).unwrap().clock().transfer_ns() - before;
        assert!(spent >= 500.0 + 1000.0, "backoff missing: {spent}");
        // The poisoned buffer is still tracked, so the sweep reclaims it.
        hub.delete_all(&mut devices);
        assert_eq!(devices.get(gpu).unwrap().pool().used(), 0);
    }

    #[test]
    fn router_prefers_host_copy_over_quarantined_holder() {
        // Regression: with every resident holder quarantined AND a host
        // accumulation present, the router used to read through the tripped
        // device. The host copy is authoritative and off the sick device's
        // critical path — it must win.
        let (mut devices, gpu, cpu) = two_devices();
        let mut hub = DataTransferHub::new();
        let r = DataRef::Output {
            node: crate::graph::NodeId(0),
            port: 0,
        };
        // Host copy exists...
        hub.host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![5, 6]), 0, 2)
            .unwrap();
        // ...and so does a device copy, but its holder is quarantined.
        let id = hub.fresh_id();
        devices
            .get_mut(gpu)
            .unwrap()
            .prepare_memory(id, 16)
            .unwrap();
        devices
            .get_mut(gpu)
            .unwrap()
            .place_data(id, BufferData::I64(vec![5, 6]), 0)
            .unwrap();
        hub.track_created(gpu, id);
        hub.register_resident(r, gpu, id);
        hub.set_quarantined([gpu].into_iter().collect());
        let d2h_before = devices.get(gpu).unwrap().clock().bytes_d2h();

        let id_cpu = hub.router(&mut devices, r, cpu).unwrap();

        // The quarantined holder was never read; the upload came from host.
        assert_eq!(devices.get(gpu).unwrap().clock().bytes_d2h(), d2h_before);
        let payload = devices
            .get_mut(cpu)
            .unwrap()
            .retrieve_data(id_cpu, None, 0)
            .unwrap();
        assert_eq!(payload, BufferData::I64(vec![5, 6]));
        // With no host copy it still reads through the quarantined holder
        // as a last resort (Input refs have no host accumulation).
        let last_resort = DataRef::Input(0);
        hub.load_whole_input(&mut devices, last_resort, gpu, "in0", &bound(&[1, 2]))
            .unwrap();
        hub.router(&mut devices, last_resort, cpu).unwrap();
        assert!(devices.get(gpu).unwrap().clock().bytes_d2h() > d2h_before);
    }

    #[test]
    fn bulk_release_does_bounded_work() {
        // Regression: `release` used to do two full-map `retain` scans per
        // freed buffer, making a bulk evict sweep O(created × resident).
        // The reverse index keeps it O(log n) per buffer; the probe counter
        // (not a wall clock) asserts the bound.
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        let n = 1000usize;
        let mut buffers = Vec::with_capacity(n);
        for i in 0..n {
            let id = hub
                .load_whole_input(
                    &mut devices,
                    DataRef::Input(i),
                    gpu,
                    "in0",
                    &bound(&[i as i64]),
                )
                .unwrap();
            buffers.push((gpu, id));
        }
        assert_eq!(hub.release_probes(), 0, "loads must not count as probes");
        hub.release_many(&mut devices, &buffers).unwrap();
        // One probe per buffer plus one per resident ref pointing at it:
        // 2n here. The old quadratic sweep would have counted ~n²/2.
        assert_eq!(hub.release_probes(), 2 * n as u64);
        assert_eq!(devices.get(gpu).unwrap().pool().used(), 0);
        // Everything is untracked: the sweep has nothing left to free.
        hub.delete_all(&mut devices);
    }

    #[test]
    fn rollback_counts_unexpected_delete_errors() {
        use adamant_device::device::DeviceInfo;
        use adamant_device::sim::SimDevice;
        use adamant_device::transform::TransformTable;

        // A buffer tracked but never actually allocated: the fault died
        // mid-allocation (OOM between `track_created` and the pool insert).
        // Rollback must tolerate the resulting `UnknownBuffer` silently.
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        let mark = hub.mark();
        hub.track_created(gpu, BufferId(777));
        hub.rollback_to(&mut devices, mark);
        assert_eq!(hub.take_rollback_delete_errors(), 0);

        // A device that fails `delete_memory` for a *different* reason
        // (never initialized → `DeviceError::NotInitialized`): that is data
        // loss the run must hear about, not swallow.
        let p = DeviceProfile::cuda_rtx2080ti();
        let broken = SimDevice::new(
            DeviceInfo {
                id: DeviceId(9),
                name: p.name.clone(),
                kind: p.kind,
                sdk: p.sdk,
                memory_capacity: p.memory_capacity,
                pinned_capacity: p.pinned_capacity,
            },
            p.cost.clone(),
            TransformTable::new(),
            p.supports_compilation,
        );
        let bad = devices.add(Box::new(broken));
        let mark = hub.mark();
        hub.track_created(bad, BufferId(1));
        hub.rollback_to(&mut devices, mark);
        assert_eq!(hub.take_rollback_delete_errors(), 1);
        // The drain reset the counter.
        assert_eq!(hub.take_rollback_delete_errors(), 0);
    }

    #[test]
    fn host_upload_is_a_clone() {
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        let r = DataRef::Output {
            node: crate::graph::NodeId(0),
            port: 0,
        };
        hub.host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![1, 2]), 0, 2)
            .unwrap();
        let id = hub.router(&mut devices, r, gpu).unwrap();
        let payload = devices
            .get_mut(gpu)
            .unwrap()
            .retrieve_data(id, None, 0)
            .unwrap();
        assert_eq!(payload, BufferData::I64(vec![1, 2]));
        // The host copy is still there: deleting the device buffer (e.g. in
        // a recovery rollback) cannot lose the accumulated result.
        assert!(hub.has_host(r));
        match hub.take_host(r).unwrap() {
            HostAccum::Numeric(v) => assert_eq!(v, vec![1, 2]),
            other => panic!("{other:?}"),
        }
    }

    /// A hub plus a GPU holding buffer `id` = `0..8`, with `plan` installed
    /// after that first placement (fault ordinals count from the install).
    fn eight_element_buffer(
        plan: FaultPlan,
    ) -> (DataTransferHub, DeviceRegistry, DeviceId, BufferId) {
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        let id = hub.fresh_id();
        hub.place_verified(&mut devices, gpu, id, BufferData::I64((0..8).collect()), 0)
            .unwrap();
        devices.get_mut(gpu).unwrap().set_fault_plan(plan);
        (hub, devices, gpu, id)
    }

    #[test]
    fn place_verified_at_an_offset_retransmits_a_corrupted_placement_once() {
        let (mut hub, mut devices, gpu, id) =
            eight_element_buffer(FaultPlan::none().corrupt_on_place(1));
        let sent = BufferData::I64(vec![-10, -11, -12]);
        let h2d = devices.get(gpu).unwrap().clock().bytes_h2d();
        hub.place_verified(&mut devices, gpu, id, sent.clone(), 3)
            .unwrap();
        let dev = devices.get_mut(gpu).unwrap();
        assert_eq!(
            dev.clock().bytes_h2d() - h2d,
            2 * sent.byte_len(),
            "exactly one retransmit"
        );
        assert_eq!(dev.fault_counters().corruptions_injected, 1);
        assert_eq!(dev.retrieve_data(id, Some(3), 3).unwrap(), sent);
        assert_eq!(
            dev.retrieve_data(id, None, 0).unwrap(),
            BufferData::I64(vec![0, 1, 2, -10, -11, -12, 6, 7]),
            "the rest of the buffer is untouched"
        );
        assert_eq!(
            hub.take_corruption_retransmits(),
            BTreeMap::from([(gpu, 1)])
        );
    }

    #[test]
    fn retrieve_verified_at_an_offset_rereads_a_corrupted_retrieval_once() {
        let (mut hub, mut devices, gpu, id) =
            eight_element_buffer(FaultPlan::none().corrupt_on_retrieve(1));
        let d2h = devices.get(gpu).unwrap().clock().bytes_d2h();
        let got = hub
            .retrieve_verified(&mut devices, gpu, id, Some(3), 2)
            .unwrap();
        assert_eq!(got, BufferData::I64(vec![2, 3, 4]));
        let dev = devices.get(gpu).unwrap();
        assert_eq!(
            dev.clock().bytes_d2h() - d2h,
            2 * got.byte_len(),
            "exactly one re-read"
        );
        assert_eq!(dev.fault_counters().corruptions_injected, 1);
        assert_eq!(
            hub.take_corruption_retransmits(),
            BTreeMap::from([(gpu, 1)])
        );
    }

    #[test]
    fn a_budget_of_one_turns_one_corruption_into_transfer_corrupted() {
        let (mut hub, mut devices, gpu, id) =
            eight_element_buffer(FaultPlan::none().corrupt_on_place(1).corrupt_on_retrieve(1));
        hub.set_retransmit_budget(1);
        let place = hub.place_verified(&mut devices, gpu, id, BufferData::I64(vec![9]), 5);
        assert!(
            matches!(place, Err(ExecError::TransferCorrupted { device, buffer })
                if device == gpu && buffer == id),
            "{place:?}"
        );
        let retrieve = hub.retrieve_verified(&mut devices, gpu, id, Some(2), 0);
        assert!(
            matches!(retrieve, Err(ExecError::TransferCorrupted { device, buffer })
                if device == gpu && buffer == id),
            "{retrieve:?}"
        );
        assert_eq!(
            hub.take_corruption_retransmits(),
            BTreeMap::from([(gpu, 2)])
        );
    }
}
