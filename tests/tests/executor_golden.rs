//! Golden fingerprints of the executor's modeled output.
//!
//! Every modeled number the executor produces is deterministic, so a run
//! can be pinned by one FNV-1a hash over its exported stats (`to_json`
//! without `wall_ns`), its per-slice durations, its memory trace and its
//! query outputs. Refactors of the runtime layer must keep every hash
//! below byte-identical: the seven TPC-H plans under all five execution
//! models, plus one scenario per recovery path (OOM backoff, kernel-streak
//! fallback, corruption re-placement, missing-implementation fallback,
//! hedge win, device death with checkpoint resume) under a serial and an
//! overlapped model.

use adamant::prelude::*;
use adamant::storage::fnv::{fnv1a_extend, FNV_OFFSET};

/// FNV-1a over everything a run reports except the wall clock.
fn fingerprint(out: &QueryOutput, stats: &ExecutionStats) -> u64 {
    let mut stats = stats.clone();
    stats.wall_ns = 0;
    let text = format!(
        "{}|{:?}|{:?}|{:?}",
        stats.to_json(),
        stats.slice_ns,
        stats.memory_trace,
        out
    );
    fnv1a_extend(FNV_OFFSET, text.as_bytes())
}

fn catalog() -> Catalog {
    TpchGenerator::new(0.001, 7).generate()
}

fn two_devices() -> AdamantBuilder {
    Adamant::builder()
        .chunk_rows(500)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
}

/// One engine per model with a residency cache, running all seven plans in
/// order, so later plans also exercise cache-served chunk staging.
const TPCH_GOLDEN: [(&str, [u64; 7]); 5] = [
    (
        "operator-at-a-time",
        [
            0x3aad3f6990827b21,
            0xde4b3a07d30fc040,
            0x8c52e30f5e32541a,
            0xb0fcff7d7c832264,
            0x5e35c4ea8ac8a459,
            0xeaf722eb6845a94b,
            0x3e2c2a246cbd6d40,
        ],
    ),
    (
        "chunked",
        [
            0x44c876dd17b0db2c,
            0x41f8d3e4c39af2e3,
            0xb15f398d27b0b24c,
            0x35c43723077f2f28,
            0x3179a2c1f6938124,
            0x6430b9b6abc07f82,
            0x2011ffa1110f2c94,
        ],
    ),
    (
        "pipelined",
        [
            0xa3334b150b169b84,
            0xe4d753176f1cfcfa,
            0xe2bab4b41a2130ac,
            0xa65078cd7a6eaf00,
            0x248ce40b0321eb9f,
            0x322f6294e4f80ac4,
            0xd881fadb33120a2a,
        ],
    ),
    (
        "4phase-chunked",
        [
            0x67b5a3a460bd5493,
            0x8f08e92bf7b7298f,
            0x414b31dcadf6623b,
            0xbdf70a979df7b4f1,
            0x2e1b44bee0817dea,
            0xfcc1de95795989cf,
            0x96a7b72dad41e1ac,
        ],
    ),
    (
        "4phase-pipelined",
        [
            0x74ecf6fef3ca811d,
            0xe220412e016ccfe3,
            0xc97e0780507225a0,
            0x3bc90f11710fa450,
            0xb1e83d3d0aadefd2,
            0x4336dba2dccc3b55,
            0x2ee2eb7ffa9653d9,
        ],
    ),
];

#[test]
fn tpch_plans_match_golden_fingerprints_under_every_model() {
    let catalog = catalog();
    let mut actual = Vec::new();
    for model in ExecutionModel::ALL {
        let mut engine = two_devices()
            .residency_cache(ResidencyConfig::new(1 << 20))
            .build()
            .unwrap();
        let dev0 = engine.device_ids()[0];
        let mut hashes = [0u64; 7];
        for (slot, q) in TpchQuery::ALL.into_iter().enumerate() {
            let graph = q.plan(dev0, &catalog).unwrap();
            let inputs = q.bind(&catalog).unwrap();
            let (out, stats) = engine.run(&graph, &inputs, model).unwrap();
            hashes[slot] = fingerprint(&out, &stats);
        }
        actual.push((model.name(), hashes));
    }
    let expected: Vec<(&str, [u64; 7])> = TPCH_GOLDEN.to_vec();
    assert_eq!(actual, expected);
}

fn filter_map_sum(dev: DeviceId) -> PrimitiveGraph {
    let mut pb = PlanBuilder::new(dev);
    let mut s = pb.scan("t", &["x"]);
    s.filter(&mut pb, Predicate::cmp("x", CmpOp::Ge, -100))
        .unwrap();
    s.project(&mut pb, "y", Expr::col("x").mul(Expr::lit(3)))
        .unwrap();
    let y = s.materialized(&mut pb, "y").unwrap();
    let sum = pb.agg_block(y, AggFunc::Sum, "sum");
    pb.output("sum", sum);
    pb.build().unwrap()
}

fn filter_map_sum_inputs() -> QueryInputs {
    let mut inputs = QueryInputs::new();
    inputs.bind(
        "x",
        (0..3000i64).map(|i| (i * 37 + 11) % 500 - 250).collect(),
    );
    inputs
}

/// Runs a recovery scenario under `model`, checks that the path it targets
/// fired, and returns the run's fingerprint.
fn scenario(
    model: ExecutionModel,
    builder: AdamantBuilder,
    q6: bool,
    fired: impl Fn(&ExecutionStats) -> bool,
) -> u64 {
    let mut engine = builder.build().unwrap();
    let dev0 = engine.device_ids()[0];
    let catalog = catalog();
    let (graph, inputs) = if q6 {
        (
            TpchQuery::Q6.plan(dev0, &catalog).unwrap(),
            TpchQuery::Q6.bind(&catalog).unwrap(),
        )
    } else {
        (filter_map_sum(dev0), filter_map_sum_inputs())
    };
    let (out, stats) = engine.run(&graph, &inputs, model).unwrap();
    assert!(fired(&stats), "{model:?}: recovery path did not fire");
    fingerprint(&out, &stats)
}

/// Device-0 clock time of a fault-free Q6 run under `model`.
fn clean_q6_ns(model: ExecutionModel) -> f64 {
    let mut engine = two_devices().build().unwrap();
    let dev0 = engine.device_ids()[0];
    let catalog = catalog();
    let graph = TpchQuery::Q6.plan(dev0, &catalog).unwrap();
    let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
    engine.run(&graph, &inputs, model).unwrap();
    engine
        .executor()
        .devices()
        .get(dev0)
        .unwrap()
        .clock()
        .total_ns()
}

const RECOVERY_MODELS: [ExecutionModel; 2] = [ExecutionModel::Chunked, ExecutionModel::Pipelined];

const RECOVERY_GOLDEN: [(&str, [u64; 2]); 6] = [
    ("oom_backoff", [0x362f0d8c0b6cbb4b, 0x9d24551b55a2b48b]),
    (
        "kernel_streak_fallback",
        [0xf206cf8ca19c0256, 0x54ec440cf5f75d22],
    ),
    (
        "corruption_replace",
        [0x880f5adb46932d4f, 0xd39d342ced5a7d68],
    ),
    (
        "no_implementation_fallback",
        [0xa7cf90bd75000d6f, 0x430db9ea8968a66a],
    ),
    ("hedge_win", [0xf755d9c2922153ce, 0x50cb6c6d0f2a1f7a]),
    (
        "death_checkpoint_resume",
        [0x9ed0a644522a156e, 0x59afbcaabc09fd8a],
    ),
];

#[test]
fn recovery_paths_match_golden_fingerprints() {
    let mut actual: Vec<(&str, [u64; 2])> = Vec::new();
    let mut record = |name: &'static str, run: &dyn Fn(ExecutionModel) -> u64| {
        let mut hashes = [0u64; 2];
        for (slot, model) in RECOVERY_MODELS.into_iter().enumerate() {
            hashes[slot] = run(model);
        }
        actual.push((name, hashes));
    };
    record("oom_backoff", &|model| {
        let b = two_devices().fault_plan(0, FaultPlan::none().oom_on_allocation(3));
        scenario(model, b, true, |s| s.chunk_backoffs > 0)
    });
    record("kernel_streak_fallback", &|model| {
        let b = two_devices()
            .fusion(false)
            .fault_plan(0, FaultPlan::none().broken_kernel("agg_block"));
        scenario(model, b, false, |s| s.fallback_placements > 0)
    });
    record("corruption_replace", &|model| {
        let b = two_devices().fault_plan(0, FaultPlan::none().corrupt_transfer_rate(1.0));
        scenario(model, b, true, |s| {
            s.fallback_placements > 0 && s.corruption_retransmits > 0
        })
    });
    record("no_implementation_fallback", &|model| {
        let b = two_devices().tasks(TaskRegistry::with_defaults(&[SdkKind::OpenCl]));
        scenario(model, b, false, |s| s.fallback_placements > 0)
    });
    record("hedge_win", &|model| {
        let plan = FaultPlan::none().slowdown(8.0).stall_on_exec(5);
        scenario(model, two_devices().fault_plan(0, plan), true, |s| {
            s.hedge_wins > 0
        })
    });
    record("death_checkpoint_resume", &|model| {
        let b = two_devices()
            .fault_plan(0, FaultPlan::none().die_at_ns(clean_q6_ns(model) * 0.75))
            .checkpoints(CheckpointConfig::enabled().cost_factor(0.0));
        scenario(model, b, true, |s| s.device_deaths == 1 && s.resumes > 0)
    });
    let expected: Vec<(&str, [u64; 2])> = RECOVERY_GOLDEN.to_vec();
    assert_eq!(actual, expected);
}
