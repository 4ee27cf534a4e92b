//! The `Device` trait — ADAMANT's ten pluggable interfaces.

use crate::buffer::{BufferData, BufferId};
use crate::clock::SimClock;
use crate::error::Result;
use crate::fault::{FaultCounters, FaultPlan};
use crate::kernel::{ExecuteSpec, KernelSource, KernelStats};
use crate::pool::BufferPool;
use crate::sdk::{SdkKind, SdkRepr};
use crate::transform::TransformKind;
use std::fmt;

/// Identifier for a device within the engine's registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev#{}", self.0)
    }
}

/// Broad device class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Host CPU (possibly many cores).
    Cpu,
    /// Discrete GPU behind a bus.
    Gpu,
    /// Anything else a user plugs in (FPGA, NPU, smart NIC front end…).
    Accelerator,
}

/// Static description of a plugged device.
#[derive(Clone, Debug)]
pub struct DeviceInfo {
    /// Registry id.
    pub id: DeviceId,
    /// Human-readable name, e.g. `"gpu0 (cuda, rtx2080ti-class)"`.
    pub name: String,
    /// Device class.
    pub kind: DeviceKind,
    /// SDK this driver speaks.
    pub sdk: SdkKind,
    /// Device memory capacity in bytes.
    pub memory_capacity: u64,
    /// Pinned (host-accessible) pool capacity in bytes.
    pub pinned_capacity: u64,
}

/// ADAMANT's device-layer interface (paper §III-A).
///
/// Implementing this trait is all that is required to plug a new
/// co-processor or SDK into the executor; the runtime layer only ever talks
/// through these methods. The ten paper interfaces map to the ten required
/// methods below; `clock`/`pool` accessors expose the simulation state the
/// runtime uses for statistics (a real driver would surface hardware
/// counters the same way).
pub trait Device: Send {
    /// Static device description.
    fn info(&self) -> &DeviceInfo;

    /// `initialize()`: set device properties, compile pre-registered
    /// kernels. Must be called before any other operation.
    fn initialize(&mut self) -> Result<()>;

    /// `place_data(data, size, offset)`: push data into device memory.
    ///
    /// With `offset == 0` and no existing buffer, creates the buffer. With an
    /// existing buffer, overwrites elements starting at `offset` (chunk
    /// uploads into pinned staging buffers use this).
    fn place_data(&mut self, id: BufferId, data: BufferData, offset: usize) -> Result<()>;

    /// `retrieve_data(id, size, offset)`: read `len` elements back to the
    /// host (`None` = the whole buffer).
    fn retrieve_data(
        &mut self,
        id: BufferId,
        len: Option<usize>,
        offset: usize,
    ) -> Result<BufferData>;

    /// `prepare_memory(size)`: allocate `bytes` of device memory for `id`.
    fn prepare_memory(&mut self, id: BufferId, bytes: u64) -> Result<()>;

    /// `transform_memory(source, target)`: convert a buffer's SDK
    /// representation, zero-copy when the transform table allows.
    fn transform_memory(&mut self, id: BufferId, target: SdkRepr) -> Result<TransformKind>;

    /// `delete_memory(id)`: free a buffer.
    fn delete_memory(&mut self, id: BufferId) -> Result<()>;

    /// `prepare_kernel(name, location)`: bind (and for source kernels,
    /// compile) a kernel under `name`. Optional per the paper — drivers
    /// without runtime compilation reject [`KernelSource::Source`].
    fn prepare_kernel(&mut self, name: &str, source: KernelSource) -> Result<()>;

    /// `create_chunk(ID, chunk size, offset)`: materialize a device-side
    /// sub-buffer `dst` holding `len` elements of `src` starting at `offset`.
    fn create_chunk(
        &mut self,
        src: BufferId,
        dst: BufferId,
        offset: usize,
        len: usize,
    ) -> Result<()>;

    /// `add_pinned_memory(ID, chunk size, offset)`: reserve host-accessible
    /// pinned memory for `id` (fast staging for the 4-phase model).
    fn add_pinned_memory(&mut self, id: BufferId, bytes: u64) -> Result<()>;

    /// `execute()`: run a prepared kernel against device buffers.
    fn execute(&mut self, spec: &ExecuteSpec) -> Result<KernelStats>;

    /// Allocates and initializes a device-resident structure (empty hash
    /// table, zeroed accumulator) **without** a host transfer — the
    /// device-side half of the runtime's `prepare_output_buffer`.
    ///
    /// Cost: one allocation plus an on-device initialization at memory
    /// bandwidth (like `cudaMemset` after `cudaMalloc`).
    fn init_structure(&mut self, id: BufferId, data: BufferData) -> Result<()>;

    /// The device's cost clock (statistics, timelines).
    fn clock(&self) -> &SimClock;

    /// Mutable clock access (the runtime drains events after each step).
    fn clock_mut(&mut self) -> &mut SimClock;

    /// The device's buffer pool (read-only inspection: usage, peak).
    fn pool(&self) -> &BufferPool;

    /// Mutable pool access — the multi-query scheduler drives the admission
    /// ledger ([`BufferPool::admission_reserve`]/[`BufferPool::admission_release`])
    /// through it.
    fn pool_mut(&mut self) -> &mut BufferPool;

    /// Frees all buffers and resets usage (between queries/experiments).
    fn reset(&mut self);

    /// The device's kernel cost model, when it has one. The runtime uses it
    /// for read-only accounting (e.g. pricing what a fused chain would have
    /// cost unfused); drivers for real hardware may have no analytical model,
    /// so the default is `None`.
    fn cost_model(&self) -> Option<&crate::cost::CostModel> {
        None
    }

    /// Installs a deterministic fault-injection plan.
    ///
    /// Optional: drivers for real hardware have nothing to inject, so the
    /// default is a no-op. [`crate::sim::SimDevice`] honors the plan.
    fn set_fault_plan(&mut self, _plan: FaultPlan) {}

    /// Counters of faults injected so far (all zero for drivers that do not
    /// support injection).
    fn fault_counters(&self) -> FaultCounters {
        FaultCounters::default()
    }

    /// Zeroes the injected-fault counters without touching the installed
    /// plan or its ordinals, so back-to-back soak iterations start from a
    /// clean slate. No-op for drivers without injection.
    fn reset_fault_counters(&mut self) {}

    /// Asked once per query-checkpoint capture: returns whether this
    /// device's fault plan scripts the snapshot being captured right now to
    /// be damaged ([`FaultPlan::corrupt_checkpoint`], 1-based capture
    /// ordinals). Drivers without injection never corrupt, so the default
    /// returns `false`. [`crate::sim::SimDevice`] honors the plan.
    fn corrupt_checkpoint_capture(&mut self) -> bool {
        false
    }

    /// Recovery-aware placement cost of moving a `working_set_bytes` working
    /// set onto this device, given the expected-retry penalty the health
    /// registry attributes to it. Fallback placement ranks candidate devices
    /// by this value (ties broken by lowest id).
    ///
    /// The default charges only the penalty — drivers without a cost model
    /// still let health feedback order candidates.
    /// [`crate::sim::SimDevice`] adds its modeled transfer cost via
    /// [`crate::cost::CostModel::placement_cost_ns`].
    fn placement_cost_ns(&self, _working_set_bytes: u64, retry_penalty_ns: f64) -> f64 {
        retry_penalty_ns.max(0.0)
    }

    /// [`Device::placement_cost_ns`] discounted by working-set bytes already
    /// resident on the device (a residency-cache pin): only the missing part
    /// pays transfer, so a cache-warm device prices a hit at zero transfer.
    fn placement_cost_ns_resident(
        &self,
        working_set_bytes: u64,
        resident_bytes: u64,
        retry_penalty_ns: f64,
    ) -> f64 {
        let moved = working_set_bytes.saturating_sub(resident_bytes);
        if moved == 0 {
            retry_penalty_ns.max(0.0)
        } else {
            self.placement_cost_ns(moved, retry_penalty_ns)
        }
    }

    /// Echoes the checksum of the stored elements `offset..offset+len` of
    /// buffer `id` (`len == None` = through the end of the buffer), as the
    /// device sees them — *after* any transfer corruption.
    ///
    /// The hub compares this echo against the checksum of what it sent to
    /// detect silent corruption end-to-end. The echo is an 8-byte control
    /// message, so it is deliberately free on the simulated clock. The
    /// default implementation hashes the range in place in the device's own
    /// pool ([`BufferData::checksum_range`], no copy), which is correct for
    /// any driver whose `place_data` stores through [`Self::pool_mut`].
    fn buffer_checksum(&self, id: BufferId, len: Option<usize>, offset: usize) -> Result<u64> {
        let buf = self.pool().get(id)?;
        let n = len.unwrap_or_else(|| buf.data.len().saturating_sub(offset));
        Ok(buf.data.checksum_range(offset, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display() {
        assert_eq!(DeviceId(3).to_string(), "dev#3");
    }
}
