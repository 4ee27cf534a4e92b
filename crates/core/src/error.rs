//! Runtime-layer errors.

use adamant_device::device::DeviceId;
use adamant_device::error::DeviceError;
use adamant_storage::error::StorageError;
use std::fmt;

/// Errors produced while building or executing a primitive graph.
#[derive(Debug)]
pub enum ExecError {
    /// A device operation failed (including device out-of-memory).
    Device(DeviceError),
    /// A kernel execution failed on a specific device.
    ///
    /// Unlike [`ExecError::Device`], this carries *which* device failed, so
    /// the executor's recovery path can re-place the pipeline onto a
    /// fallback device that has the primitive installed.
    KernelFailed {
        /// The device the kernel ran on.
        device: DeviceId,
        /// The kernel name.
        kernel: String,
        /// The underlying driver error.
        source: DeviceError,
    },
    /// A storage operation failed while binding inputs.
    Storage(StorageError),
    /// The graph failed validation.
    InvalidGraph(String),
    /// No kernel implementation is registered for a primitive on the
    /// target device's SDK.
    NoImplementation {
        /// The primitive.
        primitive: String,
        /// The SDK.
        sdk: String,
        /// Requested variant.
        variant: String,
    },
    /// A named graph input was not bound.
    MissingInput(String),
    /// Input columns of one scan disagree in length.
    InputLengthMismatch {
        /// The scan group.
        scan: String,
        /// First length observed.
        expected: usize,
        /// Conflicting length.
        actual: usize,
    },
    /// The query's simulated-timeline budget was exhausted mid-run. The
    /// attempt was unwound like any failed attempt (buffers released, ids
    /// untracked) before this error surfaced.
    DeadlineExceeded {
        /// The configured budget in modeled nanoseconds.
        budget_ns: f64,
        /// Modeled nanoseconds actually spent when the deadline check fired.
        spent_ns: f64,
    },
    /// The run was cancelled through its cancellation token. Unwound exactly
    /// like [`ExecError::DeadlineExceeded`].
    Cancelled,
    /// A host↔device transfer kept failing its end-to-end checksum after the
    /// full retransmit budget — the link to this device is lying. The
    /// recovery loop treats this like a broken device and re-places the
    /// pipeline elsewhere.
    TransferCorrupted {
        /// The device whose transfers cannot be trusted.
        device: DeviceId,
        /// The buffer whose verification failed.
        buffer: adamant_device::buffer::BufferId,
    },
    /// Internal invariant violation (a bug in an execution model).
    Internal(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Device(e) => write!(f, "device error: {e}"),
            ExecError::KernelFailed {
                device,
                kernel,
                source,
            } => write!(f, "kernel `{kernel}` failed on {device}: {source}"),
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::InvalidGraph(msg) => write!(f, "invalid primitive graph: {msg}"),
            ExecError::NoImplementation {
                primitive,
                sdk,
                variant,
            } => write!(
                f,
                "no implementation of `{primitive}` (variant `{variant}`) for SDK `{sdk}`"
            ),
            ExecError::MissingInput(name) => write!(f, "graph input `{name}` not bound"),
            ExecError::InputLengthMismatch {
                scan,
                expected,
                actual,
            } => write!(
                f,
                "scan `{scan}` columns disagree in length: {expected} vs {actual}"
            ),
            ExecError::DeadlineExceeded {
                budget_ns,
                spent_ns,
            } => write!(
                f,
                "query deadline exceeded: spent {spent_ns:.0} ns of a {budget_ns:.0} ns budget"
            ),
            ExecError::Cancelled => write!(f, "query cancelled"),
            ExecError::TransferCorrupted { device, buffer } => write!(
                f,
                "transfer of {buffer} to/from {device} failed checksum verification \
                 after exhausting the retransmit budget"
            ),
            ExecError::Internal(msg) => write!(f, "internal executor error: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Device(e) => Some(e),
            ExecError::KernelFailed { source, .. } => Some(source),
            ExecError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for ExecError {
    fn from(e: DeviceError) -> Self {
        ExecError::Device(e)
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

impl ExecError {
    /// The device a permanent-death (`Gone`) error names, whether it
    /// surfaced bare from a hub transfer/allocation or wrapped in a kernel
    /// failure — the trigger for run-level membership recovery.
    pub(crate) fn gone_device(&self) -> Option<DeviceId> {
        match self {
            ExecError::Device(DeviceError::Gone { device })
            | ExecError::KernelFailed {
                source: DeviceError::Gone { device },
                ..
            } => Some(*device),
            _ => None,
        }
    }
}

/// What a failed pipeline attempt tells the executor's recovery loop: which
/// health record it feeds, whether it evicts residency pins on the
/// attempt's devices, and the next step.
///
/// | class     | health record   | evicts pins        | next step                    |
/// |-----------|-----------------|--------------------|------------------------------|
/// | `Oom`     | OOM             | yes                | halve the chunk, retry       |
/// | `Kernel`  | kernel failure  | if device tripped  | retry; re-place on the 2nd   |
/// | `Corrupt` | corruption      | yes                | re-place                     |
/// | `NoImpl`  | —               | no                 | re-place                     |
/// | `Fatal`   | —               | no                 | fail                         |
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum FailureClass<'e> {
    /// Device or kernel out of memory (regular or pinned); the device when
    /// the error names one.
    Oom(Option<DeviceId>),
    /// A kernel failed on `device`.
    Kernel { device: DeviceId, kernel: &'e str },
    /// Transfers to this device failed verification through the whole
    /// retransmit budget.
    Corrupt(DeviceId),
    /// A node's primitive has no implementation on its device's SDK.
    NoImpl,
    /// Retrying cannot help: invalid graphs, missing inputs, deadlines,
    /// cancellation, internal errors — and device deaths, which run-level
    /// recovery handles before this table is consulted.
    Fatal,
}

/// Classifies a failed attempt's error (pure; see [`FailureClass`]).
pub(crate) fn classify(err: &ExecError) -> FailureClass<'_> {
    use DeviceError::{Gone, OutOfMemory, OutOfPinnedMemory};
    match err {
        ExecError::Device(OutOfMemory { .. } | OutOfPinnedMemory { .. }) => FailureClass::Oom(None),
        ExecError::KernelFailed {
            device,
            source: OutOfMemory { .. } | OutOfPinnedMemory { .. },
            ..
        } => FailureClass::Oom(Some(*device)),
        ExecError::KernelFailed {
            source: Gone { .. },
            ..
        } => FailureClass::Fatal,
        ExecError::KernelFailed { device, kernel, .. } => FailureClass::Kernel {
            device: *device,
            kernel,
        },
        ExecError::TransferCorrupted { device, .. } => FailureClass::Corrupt(*device),
        ExecError::NoImplementation { .. } => FailureClass::NoImpl,
        _ => FailureClass::Fatal,
    }
}

/// Shorthand result alias for runtime operations.
pub type Result<T> = std::result::Result<T, ExecError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: ExecError = DeviceError::NotInitialized.into();
        assert!(e.to_string().contains("device error"));
        let e: ExecError = StorageError::TableNotFound("t".into()).into();
        assert!(e.to_string().contains("storage error"));
        let e = ExecError::MissingInput("l_qty".into());
        assert!(e.to_string().contains("l_qty"));
        let e = ExecError::DeadlineExceeded {
            budget_ns: 1000.0,
            spent_ns: 1500.0,
        };
        assert!(e.to_string().contains("deadline exceeded"));
        assert!(ExecError::Cancelled.to_string().contains("cancelled"));
        let e = ExecError::TransferCorrupted {
            device: DeviceId(1),
            buffer: adamant_device::buffer::BufferId(7),
        };
        assert!(e.to_string().contains("checksum"));
    }

    #[test]
    fn oom_is_preserved() {
        let e: ExecError = DeviceError::OutOfMemory {
            requested: 10,
            available: 5,
            capacity: 100,
        }
        .into();
        assert!(matches!(
            e,
            ExecError::Device(DeviceError::OutOfMemory { .. })
        ));
    }

    /// The recovery table over every `ExecError` variant (and every
    /// `DeviceError` a failure can wrap that changes the class).
    #[test]
    fn classify_covers_every_error_variant() {
        use FailureClass::*;
        let (d0, d1) = (DeviceId(0), DeviceId(1));
        let oom = DeviceError::OutOfMemory {
            requested: 10,
            available: 5,
            capacity: 100,
        };
        let pinned_oom = DeviceError::OutOfPinnedMemory {
            requested: 10,
            available: 5,
        };
        let gone = DeviceError::Gone { device: d1 };
        let kernel = |source| ExecError::KernelFailed {
            device: d1,
            kernel: "agg_block".into(),
            source,
        };
        let table: Vec<(ExecError, FailureClass, Option<DeviceId>)> = vec![
            (ExecError::Device(oom.clone()), Oom(None), None),
            (ExecError::Device(pinned_oom.clone()), Oom(None), None),
            (ExecError::Device(gone.clone()), Fatal, Some(d1)),
            (ExecError::Device(DeviceError::NotInitialized), Fatal, None),
            (kernel(oom), Oom(Some(d1)), None),
            (kernel(pinned_oom), Oom(Some(d1)), None),
            (kernel(gone), Fatal, Some(d1)),
            (
                kernel(DeviceError::KernelNotFound("k".into())),
                Kernel {
                    device: d1,
                    kernel: "agg_block",
                },
                None,
            ),
            (
                ExecError::Storage(StorageError::TableNotFound("t".into())),
                Fatal,
                None,
            ),
            (ExecError::InvalidGraph("g".into()), Fatal, None),
            (
                ExecError::NoImplementation {
                    primitive: "map".into(),
                    sdk: "cuda".into(),
                    variant: "default".into(),
                },
                NoImpl,
                None,
            ),
            (ExecError::MissingInput("x".into()), Fatal, None),
            (
                ExecError::InputLengthMismatch {
                    scan: "s".into(),
                    expected: 1,
                    actual: 2,
                },
                Fatal,
                None,
            ),
            (
                ExecError::DeadlineExceeded {
                    budget_ns: 1.0,
                    spent_ns: 2.0,
                },
                Fatal,
                None,
            ),
            (ExecError::Cancelled, Fatal, None),
            (
                ExecError::TransferCorrupted {
                    device: d0,
                    buffer: adamant_device::buffer::BufferId(7),
                },
                Corrupt(d0),
                None,
            ),
            (ExecError::Internal("bug".into()), Fatal, None),
        ];
        for (err, class, gone) in &table {
            assert_eq!(classify(err), *class, "{err}");
            assert_eq!(err.gone_device(), *gone, "{err}");
        }
        // Exhaustive on purpose: a new variant fails to compile here until
        // it has a row above.
        let covered = |e: &ExecError| match e {
            ExecError::Device(_)
            | ExecError::KernelFailed { .. }
            | ExecError::Storage(_)
            | ExecError::InvalidGraph(_)
            | ExecError::NoImplementation { .. }
            | ExecError::MissingInput(_)
            | ExecError::InputLengthMismatch { .. }
            | ExecError::DeadlineExceeded { .. }
            | ExecError::Cancelled
            | ExecError::TransferCorrupted { .. }
            | ExecError::Internal(_) => std::mem::discriminant(e),
        };
        let variants: std::collections::HashSet<_> =
            table.iter().map(|(e, _, _)| covered(e)).collect();
        assert_eq!(variants.len(), 11, "every ExecError variant has a row");
    }
}
