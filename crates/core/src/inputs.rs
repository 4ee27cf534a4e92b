//! Host columns bound to a graph's inputs.
//!
//! Each binding carries its residency fingerprint beside its values. The
//! fingerprint is computed the first time a residency cache asks for it —
//! one word-wise FNV-1a pass over the column — and shared by every clone
//! of the binding, so a run hashes each bound column at most once however
//! many chunks, devices and placement probes consult the cache, and a run
//! without a cache never hashes at all. Rebinding a name creates a new
//! binding with a fingerprint of its own; nothing is keyed by address or
//! by input name.

use crate::error::Result;
use crate::residency::ColumnKey;
use adamant_storage::column::Column;
use adamant_storage::fnv::{fnv1a_words, FNV_OFFSET};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// One bound input column: its host values, shareable with the transfer
/// thread, plus the lazily computed residency fingerprint.
#[derive(Clone, Debug)]
pub struct BoundColumn {
    values: Arc<Vec<i64>>,
    fingerprint: Arc<OnceLock<u64>>,
}

impl BoundColumn {
    /// Binds `values`; the fingerprint is not computed yet.
    pub fn new(values: Vec<i64>) -> Self {
        BoundColumn {
            values: Arc::new(values),
            fingerprint: Arc::new(OnceLock::new()),
        }
    }

    /// The bound values.
    pub fn values(&self) -> &Arc<Vec<i64>> {
        &self.values
    }

    /// Number of bound rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The column's residency-cache key. Hashes the values on the first
    /// call only; later calls, on this binding or any clone, reuse it.
    pub fn key(&self) -> ColumnKey {
        let fingerprint = *self
            .fingerprint
            .get_or_init(|| fnv1a_words(FNV_OFFSET, &self.values));
        ColumnKey::new(self.values.len(), fingerprint)
    }

    /// Whether [`BoundColumn::key`] has hashed the values yet.
    #[cfg(test)]
    pub(crate) fn fingerprint_computed(&self) -> bool {
        self.fingerprint.get().is_some()
    }
}

impl From<&BoundColumn> for ColumnKey {
    fn from(column: &BoundColumn) -> Self {
        column.key()
    }
}

/// Host columns bound to graph inputs, by input name.
#[derive(Clone, Debug, Default)]
pub struct QueryInputs {
    cols: BTreeMap<String, BoundColumn>,
}

impl QueryInputs {
    /// Creates an empty binding set.
    pub fn new() -> Self {
        QueryInputs::default()
    }

    /// Binds a raw vector.
    pub fn bind(&mut self, name: impl Into<String>, values: Vec<i64>) {
        self.cols.insert(name.into(), BoundColumn::new(values));
    }

    /// Binds a storage column (widened to `i64`; dictionary columns bind
    /// their codes).
    pub fn bind_column(&mut self, name: impl Into<String>, column: &Column) -> Result<()> {
        self.bind(name, column.to_i64_vec()?);
        Ok(())
    }

    /// Looks up a bound column.
    pub fn get(&self, name: &str) -> Option<&BoundColumn> {
        self.cols.get(name)
    }

    /// Number of bound columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Iterates bound `(name, column)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &BoundColumn)> {
        self.cols.iter().map(|(n, c)| (n.as_str(), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, ExecutorConfig};
    use crate::graph::{GraphBuilder, NodeParams, PrimitiveGraph};
    use crate::models::ExecutionModel;
    use crate::residency::ResidencyConfig;
    use adamant_device::device::DeviceId;
    use adamant_device::profiles::DeviceProfile;
    use adamant_device::sdk::SdkKind;
    use adamant_task::params::CmpOp;
    use adamant_task::primitive::PrimitiveKind;
    use adamant_task::registry::TaskRegistry;

    #[test]
    fn clones_share_one_fingerprint_and_rebinding_starts_fresh() {
        let mut inputs = QueryInputs::new();
        inputs.bind("x", (0..100).collect());
        let copy = inputs.clone();
        assert!(!inputs.get("x").unwrap().fingerprint_computed());
        let key = copy.get("x").unwrap().key();
        assert!(
            inputs.get("x").unwrap().fingerprint_computed(),
            "a clone's fingerprint is the original's"
        );
        assert_eq!(inputs.get("x").unwrap().key(), key);
        let mut changed: Vec<i64> = (0..100).collect();
        changed[42] += 1;
        inputs.bind("x", changed);
        assert!(!inputs.get("x").unwrap().fingerprint_computed());
        assert_ne!(inputs.get("x").unwrap().key(), key);
    }

    /// `SELECT x FROM t WHERE x < y`: whole-input loads under
    /// operator-at-a-time, chunk staging (serial and on the transfer
    /// thread) under the chunked models.
    fn filter_graph(dev: DeviceId) -> PrimitiveGraph {
        let mut b = GraphBuilder::new();
        let x = b.scan_input("t", "x");
        let y = b.scan_input("t", "y");
        let bm = b.add(
            PrimitiveKind::FilterBitmapCol,
            NodeParams::Filter {
                cmp: CmpOp::Lt,
                value: 0,
                hi: 0,
            },
            vec![x, y],
            1,
            dev,
            "filter",
        );
        let vals = b.add(
            PrimitiveKind::Materialize,
            NodeParams::None,
            vec![x, bm[0]],
            1,
            dev,
            "mat",
        );
        b.output("x", vals[0]);
        b.build().unwrap()
    }

    /// Runs without a residency cache never hash a binding; a cached run
    /// hashes each one exactly when the cache first asks.
    #[test]
    fn only_a_residency_cache_computes_fingerprints() {
        let config = ExecutorConfig {
            chunk_rows: 256,
            ..Default::default()
        };
        let mut exec = Executor::new(TaskRegistry::with_defaults(&[SdkKind::Cuda]), config);
        let dev = exec.add_profile(&DeviceProfile::cuda_rtx2080ti()).unwrap();
        let graph = filter_graph(dev);
        let mut inputs = QueryInputs::new();
        inputs.bind("x", (0..2_000).collect());
        inputs.bind("y", vec![500; 2_000]);
        for model in ExecutionModel::ALL {
            exec.run(&graph, &inputs, model).unwrap();
            assert_eq!(exec.residency_resident_bytes(dev, &inputs), 0);
            for (name, col) in inputs.iter() {
                assert!(
                    !col.fingerprint_computed(),
                    "{model:?}: uncached run hashed {name}"
                );
            }
        }
        exec.set_residency_cache(ResidencyConfig::new(1 << 20));
        exec.run(&graph, &inputs, ExecutionModel::Chunked).unwrap();
        for (name, col) in inputs.iter() {
            assert!(col.fingerprint_computed(), "cached run never keyed {name}");
        }
        assert_eq!(
            exec.residency_resident_bytes(dev, &inputs),
            2 * 2_000 * 8,
            "both columns pinned under their fingerprints"
        );
    }
}
