//! A timing `Device` wrapper: the device layer timed from outside.
//!
//! [`TimedDevice`] implements every method of the `Device` trait, the
//! defaulted ones included, by forwarding to the wrapped device. The ten
//! plug-in interfaces plus `init_structure` and `buffer_checksum` each run
//! inside a span named `device.<call>`; `execute` runs inside a span named
//! after the kernel (`task.kernel.<name>`), which is the task layer's work.
//! Bytes moved by `place_data` and `retrieve_data` are counted. Accessors
//! and fault hooks are forwarded untimed. The wrapper never changes what the
//! device sees or returns, so a traced run's modeled time matches an
//! untraced run's exactly.

use crate::trace::Tracer;
use adamant::device::buffer::{BufferData, BufferId};
use adamant::device::clock::SimClock;
use adamant::device::error::Result;
use adamant::device::transform::TransformKind;
use adamant::prelude::*;
use std::collections::HashMap;

/// The timed calls, in the order of [`CALLS`].
#[derive(Clone, Copy)]
enum Call {
    Initialize,
    PlaceData,
    RetrieveData,
    PrepareMemory,
    TransformMemory,
    DeleteMemory,
    PrepareKernel,
    CreateChunk,
    AddPinnedMemory,
    InitStructure,
    BufferChecksum,
}

/// Span names of the timed calls other than `execute`.
pub const CALLS: [&str; 11] = [
    "device.initialize",
    "device.place_data",
    "device.retrieve_data",
    "device.prepare_memory",
    "device.transform_memory",
    "device.delete_memory",
    "device.prepare_kernel",
    "device.create_chunk",
    "device.add_pinned_memory",
    "device.init_structure",
    "device.buffer_checksum",
];

/// Wraps a device and records a span around each layer call.
pub struct TimedDevice {
    inner: Box<dyn Device>,
    tracer: Tracer,
    ids: [u32; 11],
    kernels: HashMap<String, u32>,
}

impl TimedDevice {
    /// Wraps `inner`; spans and byte counts go to `tracer`.
    pub fn new(inner: Box<dyn Device>, tracer: Tracer) -> Self {
        let ids = {
            let mut r = tracer.lock();
            CALLS.map(|c| r.name(c))
        };
        TimedDevice {
            inner,
            tracer,
            ids,
            kernels: HashMap::new(),
        }
    }

    fn timed_mut<T>(&mut self, call: Call, f: impl FnOnce(&mut Box<dyn Device>) -> T) -> T {
        let idx = self.tracer.lock().begin(self.ids[call as usize]);
        let out = f(&mut self.inner);
        self.tracer.lock().end(idx);
        out
    }

    fn count_bytes(&self, call: Call, n: u64) {
        self.tracer.lock().add_bytes(self.ids[call as usize], n);
    }
}

impl Device for TimedDevice {
    fn info(&self) -> &DeviceInfo {
        self.inner.info()
    }

    fn initialize(&mut self) -> Result<()> {
        self.timed_mut(Call::Initialize, |d| d.initialize())
    }

    fn place_data(&mut self, id: BufferId, data: BufferData, offset: usize) -> Result<()> {
        self.count_bytes(Call::PlaceData, data.byte_len());
        self.timed_mut(Call::PlaceData, |d| d.place_data(id, data, offset))
    }

    fn retrieve_data(
        &mut self,
        id: BufferId,
        len: Option<usize>,
        offset: usize,
    ) -> Result<BufferData> {
        let out = self.timed_mut(Call::RetrieveData, |d| d.retrieve_data(id, len, offset));
        if let Ok(data) = &out {
            self.count_bytes(Call::RetrieveData, data.byte_len());
        }
        out
    }

    fn prepare_memory(&mut self, id: BufferId, bytes: u64) -> Result<()> {
        self.timed_mut(Call::PrepareMemory, |d| d.prepare_memory(id, bytes))
    }

    fn transform_memory(&mut self, id: BufferId, target: SdkRepr) -> Result<TransformKind> {
        self.timed_mut(Call::TransformMemory, |d| d.transform_memory(id, target))
    }

    fn delete_memory(&mut self, id: BufferId) -> Result<()> {
        self.timed_mut(Call::DeleteMemory, |d| d.delete_memory(id))
    }

    fn prepare_kernel(&mut self, name: &str, source: KernelSource) -> Result<()> {
        self.timed_mut(Call::PrepareKernel, |d| d.prepare_kernel(name, source))
    }

    fn create_chunk(
        &mut self,
        src: BufferId,
        dst: BufferId,
        offset: usize,
        len: usize,
    ) -> Result<()> {
        self.timed_mut(Call::CreateChunk, |d| d.create_chunk(src, dst, offset, len))
    }

    fn add_pinned_memory(&mut self, id: BufferId, bytes: u64) -> Result<()> {
        self.timed_mut(Call::AddPinnedMemory, |d| d.add_pinned_memory(id, bytes))
    }

    fn execute(&mut self, spec: &ExecuteSpec) -> Result<KernelStats> {
        let name = match self.kernels.get(&spec.kernel) {
            Some(&id) => id,
            None => {
                let id = self
                    .tracer
                    .lock()
                    .name(&format!("task.kernel.{}", spec.kernel));
                self.kernels.insert(spec.kernel.clone(), id);
                id
            }
        };
        let idx = self.tracer.lock().begin(name);
        let out = self.inner.execute(spec);
        self.tracer.lock().end(idx);
        out
    }

    fn init_structure(&mut self, id: BufferId, data: BufferData) -> Result<()> {
        self.timed_mut(Call::InitStructure, |d| d.init_structure(id, data))
    }

    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }

    fn clock_mut(&mut self) -> &mut SimClock {
        self.inner.clock_mut()
    }

    fn pool(&self) -> &adamant::device::pool::BufferPool {
        self.inner.pool()
    }

    fn pool_mut(&mut self) -> &mut adamant::device::pool::BufferPool {
        self.inner.pool_mut()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn cost_model(&self) -> Option<&CostModel> {
        self.inner.cost_model()
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.inner.set_fault_plan(plan)
    }

    fn fault_counters(&self) -> FaultCounters {
        self.inner.fault_counters()
    }

    fn reset_fault_counters(&mut self) {
        self.inner.reset_fault_counters()
    }

    fn corrupt_checkpoint_capture(&mut self) -> bool {
        self.inner.corrupt_checkpoint_capture()
    }

    fn placement_cost_ns(&self, working_set_bytes: u64, retry_penalty_ns: f64) -> f64 {
        self.inner
            .placement_cost_ns(working_set_bytes, retry_penalty_ns)
    }

    fn placement_cost_ns_resident(
        &self,
        working_set_bytes: u64,
        resident_bytes: u64,
        retry_penalty_ns: f64,
    ) -> f64 {
        self.inner
            .placement_cost_ns_resident(working_set_bytes, resident_bytes, retry_penalty_ns)
    }

    fn buffer_checksum(&self, id: BufferId, len: Option<usize>, offset: usize) -> Result<u64> {
        let idx = self
            .tracer
            .lock()
            .begin(self.ids[Call::BufferChecksum as usize]);
        let out = self.inner.buffer_checksum(id, len, offset);
        self.tracer.lock().end(idx);
        out
    }
}
