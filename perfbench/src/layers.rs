//! Per-layer attribution of a traced run's spans.
//!
//! Every span inside a step's root span (`bench.query` or `bench.batch`)
//! counts its self time towards the layer its name starts with. Spans
//! outside any step root are probes: calls the benchmark times beside the
//! path. When a step's timed call makes the probed calls inside it (as
//! `Session::sql` compiles, binds and estimates inside), the probes' time
//! moves from the `core` layer to the layers they measure.

use crate::trace::{self, Recorder};
use std::collections::BTreeMap;

/// Layers of the self-time check, in report order; a span belongs to the
/// layer its name starts with.
pub(crate) const LAYERS: [&str; 7] = ["sql", "tpch", "sched", "core", "device", "task", "bench"];

/// Largest accepted gap between a step's wall time and the sum of its
/// layers' self times, as a share of the wall time.
pub(crate) const SELF_SUM_TOLERANCE: f64 = 0.01;

const CORE: usize = 3;

fn layer_of(name: &str) -> Option<usize> {
    let prefix = name.split('.').next().unwrap_or(name);
    LAYERS.iter().position(|&l| l == prefix)
}

/// Where a traced run's wall time went.
pub(crate) struct Attribution {
    /// Self ns per layer, per step.
    pub(crate) layer_ns: Vec<[f64; LAYERS.len()]>,
    /// Σ duration (ns) and number of spans per span name.
    by_name: BTreeMap<String, (f64, u64)>,
    /// Largest |Σ layer self times − step wall| / step wall.
    pub(crate) worst_err: f64,
    /// Span ends that did not match the innermost open span.
    pub(crate) nesting_errors: u64,
}

impl Attribution {
    /// Attributes the spans of `steps` steps. `move_probes` moves probe
    /// spans of the `sql`, `tpch` and `sched` layers out of `core`.
    pub(crate) fn new(rec: &Recorder, steps: usize, move_probes: bool) -> Self {
        let spans = rec.spans();
        let selfs = trace::self_times(spans);
        // Root of every span; parents always precede their children.
        let mut root = vec![0usize; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            root[i] = s.parent.map_or(i, |p| root[p as usize]);
        }
        let mut layer_ns = vec![[0f64; LAYERS.len()]; steps];
        let mut moved_ns = vec![0f64; steps];
        let mut wall_ns = vec![0f64; steps];
        let mut by_name: BTreeMap<String, (f64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let name = rec.name_of(s.name);
            let e = by_name.entry(name.to_string()).or_default();
            e.0 += s.dur_ns() as f64;
            e.1 += 1;
            let (q, layer) = (s.query as usize, layer_of(name));
            let in_step = rec.name_of(spans[root[i]].name).starts_with("bench.");
            if in_step {
                if let Some(l) = layer {
                    layer_ns[q][l] += selfs[i] as f64;
                }
                if s.parent.is_none() {
                    wall_ns[q] += s.dur_ns() as f64;
                }
            } else if let Some(l) = layer.filter(|&l| move_probes && l < CORE) {
                layer_ns[q][l] += s.dur_ns() as f64;
                moved_ns[q] += s.dur_ns() as f64;
            }
        }
        let mut worst_err = 0f64;
        for q in 0..steps {
            layer_ns[q][CORE] = (layer_ns[q][CORE] - moved_ns[q]).max(0.0);
            let sum: f64 = layer_ns[q].iter().sum();
            if wall_ns[q] > 0.0 {
                worst_err = worst_err.max((sum - wall_ns[q]).abs() / wall_ns[q]);
            }
        }
        Attribution {
            layer_ns,
            by_name,
            worst_err,
            nesting_errors: rec.nesting_errors,
        }
    }

    /// Whether every step's layer self times sum to its wall time.
    pub(crate) fn adds_up(&self) -> bool {
        self.nesting_errors == 0 && self.worst_err <= SELF_SUM_TOLERANCE
    }

    /// Σ self ns of one layer over all steps.
    pub(crate) fn layer_total_ns(&self, layer: &str) -> f64 {
        let l = LAYERS
            .iter()
            .position(|&x| x == layer)
            .expect("a layer of LAYERS");
        self.layer_ns.iter().map(|q| q[l]).sum()
    }

    /// Σ duration of the spans called `name`, ns.
    pub(crate) fn incl_ns(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.0)
    }

    /// Number of spans called `name`.
    pub(crate) fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.1)
    }

    /// Names of the kernel spans seen, sorted.
    pub(crate) fn kernels(&self) -> Vec<String> {
        self.by_name
            .keys()
            .filter(|k| k.starts_with("task.kernel."))
            .cloned()
            .collect()
    }
}
