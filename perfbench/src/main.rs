//! End-to-end and per-layer wall-clock benchmark of the ADAMANT engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sql_tpch_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload runs in this one process, on one thread, as a closed loop:
//! the next query (or batch) is sent once the previous one's rows have been
//! checked against an oracle computed at setup. `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` runs the same query
//! sequence twice, untraced and then through timing wrappers around every
//! layer call, checks that both runs report identical modeled statistics,
//! and reports the per-layer metrics. The last line of standard output is
//! one JSON object; the process exits non-zero when any result was wrong.
//! See `README.md` beside this file for the metrics and workloads.

mod layers;
mod oracle;
mod timed;
mod trace;
mod workload;

use adamant::prelude::*;
use layers::{Attribution, LAYERS, SELF_SUM_TOLERANCE};
use oracle::Oracle;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Bench, ExecTotals, SchedTotals, Step, Workload, SCALE_FACTOR, SETUPS};

/// Nearest-rank percentile of sorted samples (NaN when there are none).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted
        .get(rank.clamp(1, sorted.len().max(1)) - 1)
        .copied()
        .unwrap_or(f64::NAN)
}

/// Median (NaN when there are no samples).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The expected answers for the catalog of `seed`, from a generation of
/// its own so that no setup time includes them.
fn oracle_for(seed: u64) -> Oracle {
    Oracle::new(&TpchGenerator::new(SCALE_FACTOR, seed).generate())
}

/// Metrics in report order: name → (value, unit).
type Metrics = Vec<(String, f64, &'static str)>;

/// The outcome of one benchmark run.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    notes: Vec<String>,
}

fn run_steps(bench: &mut Bench, until: Duration) -> Vec<Step> {
    let t0 = Instant::now();
    let mut steps = Vec::new();
    while t0.elapsed() < until {
        steps.push(bench.step(None));
    }
    steps
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn run_untraced(workload: Workload, seed: u64, seconds: f64) -> Report {
    let oracle = oracle_for(seed);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_wrong = 0;
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let (b, times, wrong) = Bench::setup(workload, seed, None, &oracle);
        setup_s.push(times.total_s);
        setup_wrong += wrong;
        bench = Some(b);
    }
    let mut bench = bench.expect("SETUPS > 0");

    let working_set = bench.working_set_note();
    let t0 = Instant::now();
    let steps = run_steps(&mut bench, Duration::from_secs_f64(seconds));
    let loop_s = t0.elapsed().as_secs_f64();
    let leak_free = bench.leak_free();

    let queries: usize = steps.iter().map(|s| s.queries).sum();
    let wrong: usize = steps.iter().map(|s| s.wrong).sum();
    let mut lat_ms: Vec<f64> = steps
        .iter()
        .flat_map(|s| std::iter::repeat_n(s.wall_ns as f64 / 1e6, s.queries))
        .collect();
    lat_ms.sort_by(f64::total_cmp);
    let wall_ns: f64 = steps.iter().map(|s| s.wall_ns as f64).sum();
    let modeled_ns: f64 = steps.iter().map(|s| s.modeled_ns).sum();
    let makespan_ns: f64 = steps.iter().map(|s| s.makespan_ns).sum();
    let dl_sub: usize = steps.iter().map(|s| s.deadline_submitted).sum();
    let dl_miss: usize = steps.iter().map(|s| s.deadline_missed).sum();

    let metrics = vec![
        ("setup_s".to_string(), median(setup_s.clone()), "s"),
        ("query_p50_ms".to_string(), percentile(&lat_ms, 0.5), "ms"),
        ("query_p90_ms".to_string(), percentile(&lat_ms, 0.9), "ms"),
        (
            "queries_per_s".to_string(),
            (queries - wrong) as f64 / loop_s,
            "1/s",
        ),
        (
            "modeled_ms_per_query".to_string(),
            modeled_ns / queries as f64 / 1e6,
            "ms",
        ),
        (
            "wall_over_modeled".to_string(),
            wall_ns / modeled_ns,
            "ratio",
        ),
        (
            "modeled_makespan_ms".to_string(),
            makespan_ns / steps.len() as f64 / 1e6,
            "ms",
        ),
        ("peak_rss_mib".to_string(), peak_rss_mib(), "MiB"),
    ];
    let beyond_p90 = lat_ms.iter().filter(|&&x| x > metrics[2].1).count();
    let mut notes = vec![
        format!(
            "samples: {} queries in {} steps over {loop_s:.2} s; {beyond_p90} samples above p90",
            queries,
            steps.len()
        ),
        format!(
            "error_frac {} ratio ({wrong} of {queries} queries wrong, failed, shed or rejected)",
            wrong as f64 / queries.max(1) as f64
        ),
        format!("setup_s samples: {setup_s:?}"),
        format!("leak check after clear_residency: {}", ok(leak_free)),
    ];
    if dl_sub > 0 {
        notes.push(format!(
            "deadline_miss_frac {} ratio ({dl_miss} of {dl_sub} deadline queries late or shed)",
            dl_miss as f64 / dl_sub as f64
        ));
    }
    let per_query: Vec<String> = TpchQuery::ALL
        .iter()
        .filter_map(|&q| {
            let walls: Vec<f64> = steps
                .iter()
                .filter(|s| s.query == Some(q))
                .map(|s| s.wall_ns as f64 / 1e6)
                .collect();
            (!walls.is_empty())
                .then(|| format!("{q} {:.3} ms (n={})", median(walls.clone()), walls.len()))
        })
        .collect();
    if !per_query.is_empty() {
        notes.push(format!("median wall per query: {}", per_query.join(", ")));
    }
    notes.extend(working_set);
    if setup_wrong > 0 {
        notes.push(format!("{setup_wrong} wrong results during warm-up"));
    }
    Report {
        correct: wrong == 0 && setup_wrong == 0 && leak_free,
        attempted: queries,
        failed: wrong,
        metrics,
        notes,
    }
}

fn ok(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "FAILED"
    }
}

/// `--trace 1`: the per-layer metrics. Runs the seeded sequence on two
/// engines side by side, one plain and one whose devices are wrapped in
/// [`TimedDevice`] with a span around every layer call, and checks that both
/// report the same modeled statistics step by step.
fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Report {
    let oracle = oracle_for(seed);
    let (mut plain, plain_times, plain_wrong) = Bench::setup(workload, seed, None, &oracle);
    let tracer = Tracer::new();
    let (mut traced, traced_times, traced_wrong) =
        Bench::setup(workload, seed, Some(&tracer), &oracle);
    // Untraced and traced steps alternate, each going first every other
    // time, so that both see the same machine state.
    let (mut base, mut steps) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs_f64(seconds) {
        let traced_first = steps.len() % 2 == 1;
        if !traced_first {
            base.push(plain.step(None));
        }
        tracer.set_query(steps.len() as u64);
        tracer.set_on(true);
        steps.push(traced.step(Some(&tracer)));
        tracer.set_on(false);
        if traced_first {
            base.push(plain.step(None));
        }
    }
    let working_set = plain.working_set_note();
    let plain_leak_free = plain.leak_free();
    let traced_leak_free = traced.leak_free();
    drop((plain, traced));

    let mismatched = base
        .iter()
        .zip(&steps)
        .filter(|(a, b)| a.fingerprint != b.fingerprint)
        .count();
    let queries: usize = steps.iter().map(|s| s.queries).sum();
    let wrong: usize = base.iter().chain(&steps).map(|s| s.wrong).sum();
    let setup_wrong = plain_wrong + traced_wrong;
    let plain_wall: f64 = base.iter().map(|s| s.wall_ns as f64).sum();
    let traced_wall: f64 = steps.iter().map(|s| s.wall_ns as f64).sum();

    let attr = Attribution::new(
        &tracer.lock(),
        steps.len(),
        workload == Workload::SqlTpchCold,
    );
    let per_q = |ns: f64| ns / queries.max(1) as f64;
    let incl = |name: &str| attr.incl_ns(name);
    let calls = |name: &str| attr.calls(name);
    let mut m: Metrics = Vec::new();
    let mut put = |name: String, v: f64, unit: &'static str| m.push((name, v, unit));

    for stage in ["parse", "bind", "rewrite", "lower"] {
        put(
            format!("sql.{stage}_us"),
            per_q(incl(&format!("sql.{stage}"))) / 1e3,
            "us",
        );
    }
    put(
        "tpch.generate_s".into(),
        median(vec![plain_times.generate_s, traced_times.generate_s]),
        "s",
    );
    put("tpch.bind_us".into(), per_q(incl("tpch.bind")) / 1e3, "us");

    let (mut sched, mut exec) = (SchedTotals::default(), ExecTotals::default());
    for s in &steps {
        sched += &s.sched;
        exec += &s.exec;
    }
    let dl_sub: usize = steps.iter().map(|s| s.deadline_submitted).sum();
    let dl_miss: usize = steps.iter().map(|s| s.deadline_missed).sum();
    let per_batch = |v: u64| v as f64 / sched.batches.max(1) as f64;
    put(
        "sched.estimate_footprint_us".into(),
        per_q(incl("sched.estimate_footprint")) / 1e3,
        "us",
    );
    put("sched.admitted".into(), per_batch(sched.admitted), "count");
    put("sched.held".into(), per_batch(sched.held), "count");
    put("sched.slices".into(), per_batch(sched.slices), "count");
    put(
        "sched.preemptions".into(),
        per_batch(sched.preemptions),
        "count",
    );
    put(
        "sched.max_queue_depth".into(),
        sched.max_queue_depth as f64,
        "count",
    );
    put(
        "sched.wait_modeled_ms".into(),
        per_q(sched.wait_ns) / 1e6,
        "ms",
    );
    put(
        "sched.tenant_share_err".into(),
        sched.share_err_sum / sched.batches.max(1) as f64,
        "ratio",
    );
    put(
        "sched.deadline_miss_frac".into(),
        dl_miss as f64 / dl_sub.max(1) as f64,
        "ratio",
    );

    put(
        "core.run_self_ms".into(),
        per_q(attr.layer_total_ns("core")) / 1e6,
        "ms",
    );
    put(
        "core.fuse_graph_us".into(),
        per_q(incl("core.fuse_graph")) / 1e3,
        "us",
    );
    put(
        "core.modeled_transfer_ms".into(),
        per_q(exec.transfer_ns) / 1e6,
        "ms",
    );
    put(
        "core.modeled_compute_ms".into(),
        per_q(exec.compute_ns) / 1e6,
        "ms",
    );
    put(
        "core.modeled_other_ms".into(),
        per_q(exec.other_ns) / 1e6,
        "ms",
    );
    put(
        "core.chunks_processed".into(),
        per_q(exec.chunks as f64),
        "count",
    );
    put(
        "core.nodes_fused".into(),
        per_q(exec.nodes_fused as f64),
        "count",
    );
    put(
        "core.intermediates_elided_bytes".into(),
        per_q(exec.elided_bytes as f64),
        "bytes",
    );
    put(
        "core.residency.hits".into(),
        per_q(exec.hits as f64),
        "count",
    );
    put(
        "core.residency.misses".into(),
        per_q(exec.misses as f64),
        "count",
    );
    put(
        "core.residency.evictions".into(),
        per_q(exec.evictions as f64),
        "count",
    );
    put(
        "core.residency.pinned_bytes".into(),
        per_q(exec.pinned_bytes as f64),
        "bytes",
    );
    put(
        "core.residency.saved_transfer_modeled_ms".into(),
        per_q(exec.saved_transfer_ns) / 1e6,
        "ms",
    );
    let lookups = exec.hits + exec.misses;
    put(
        "core.residency.hit_ratio".into(),
        exec.hits as f64 / lookups.max(1) as f64,
        "ratio",
    );

    let kernels = attr.kernels();
    let execute_ns: f64 = kernels.iter().map(|k| incl(k)).sum();
    let execute_calls: u64 = kernels.iter().map(|k| calls(k)).sum();
    for call in timed::CALLS {
        put(format!("{call}_us"), per_q(incl(call)) / 1e3, "us");
        put(format!("{call}_calls"), per_q(calls(call) as f64), "count");
    }
    put("device.execute_us".into(), per_q(execute_ns) / 1e3, "us");
    put(
        "device.execute_calls".into(),
        per_q(execute_calls as f64),
        "count",
    );
    for (call, label) in [
        ("device.place_data", "device.place_data_bytes"),
        ("device.retrieve_data", "device.retrieve_data_bytes"),
    ] {
        let bytes = tracer.lock().bytes_of(call);
        put(label.into(), per_q(bytes as f64), "bytes");
    }
    for k in &kernels {
        put(format!("{k}_us"), per_q(incl(k)) / 1e3, "us");
        put(format!("{k}_calls"), per_q(calls(k) as f64), "count");
    }
    let overhead = traced_wall / plain_wall.max(1.0) - 1.0;
    put("trace.overhead_frac".into(), overhead, "ratio");
    put("trace.self_sum_max_err".into(), attr.worst_err, "ratio");

    let mut notes = vec![
        format!(
            "{} traced steps ({queries} queries) alternating with {} untraced steps",
            steps.len(),
            base.len()
        ),
        format!(
            "traced vs untraced modeled stats: {} ({mismatched} of {} steps differ)",
            ok(mismatched == 0 && base.len() == steps.len()),
            steps.len()
        ),
        format!(
            "layer self times sum to query wall within {SELF_SUM_TOLERANCE}: {} \
             (worst {:.6}, nesting errors {})",
            ok(attr.adds_up()),
            attr.worst_err,
            attr.nesting_errors
        ),
        format!(
            "core.residency.hit_ratio base: {lookups} lookups ({} hits + {} misses)",
            exec.hits, exec.misses
        ),
        format!(
            "leak check after clear_residency: untraced {}, traced {}",
            ok(plain_leak_free),
            ok(traced_leak_free)
        ),
    ];
    let total_self: f64 = attr.layer_ns.iter().flatten().sum();
    let shares: Vec<String> = LAYERS
        .iter()
        .map(|l| format!("{l} {:.3}", attr.layer_total_ns(l) / total_self.max(1.0)))
        .collect();
    notes.push(format!(
        "layer self-time shares of wall: {}",
        shares.join(", ")
    ));
    notes.extend(working_set);
    match write_spans(workload, &tracer) {
        Ok(path) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }

    if setup_wrong > 0 {
        notes.push(format!("{setup_wrong} wrong results during warm-up"));
    }
    Report {
        correct: wrong == 0
            && setup_wrong == 0
            && mismatched == 0
            && base.len() == steps.len()
            && attr.adds_up()
            && plain_leak_free
            && traced_leak_free,
        attempted: base.iter().chain(&steps).map(|s| s.queries).sum(),
        failed: wrong,
        metrics: m,
        notes,
    }
}

/// Writes the traced run's spans beside the benchmark's sources.
fn write_spans(workload: Workload, tracer: &Tracer) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}.tsv", workload.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_tsv(&mut out)?;
    std::io::Write::flush(&mut out)?;
    Ok(path)
}

/// Metrics the last JSON line carries with `--trace 0`. `peak_rss_mib` is
/// printed but left out: across seeds it jumps between allocator states
/// (16.3, 18.6 and 20.8 MiB on `sql_tpch_cold`), too far apart for a bound.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "query_p50_ms",
    "query_p90_ms",
    "queries_per_s",
    "modeled_ms_per_query",
    "wall_over_modeled",
    "modeled_makespan_ms",
];

/// Metrics the last JSON line carries with `--trace 1`: the times that are
/// non-zero on every workload, and counts and ratios. Every per-layer
/// metric is printed above it.
const PER_LAYER: [&str; 37] = [
    "sql.parse_us",
    "sql.bind_us",
    "sql.rewrite_us",
    "sql.lower_us",
    "tpch.generate_s",
    "tpch.bind_us",
    "sched.estimate_footprint_us",
    "sched.held",
    "sched.slices",
    "sched.tenant_share_err",
    "sched.deadline_miss_frac",
    "core.run_self_ms",
    "core.fuse_graph_us",
    "core.modeled_transfer_ms",
    "core.modeled_compute_ms",
    "core.modeled_other_ms",
    "core.chunks_processed",
    "core.nodes_fused",
    "core.intermediates_elided_bytes",
    "core.residency.hits",
    "core.residency.misses",
    "core.residency.evictions",
    "core.residency.hit_ratio",
    "device.buffer_checksum_us",
    "device.buffer_checksum_calls",
    "device.place_data_calls",
    "device.place_data_bytes",
    "device.prepare_memory_us",
    "device.delete_memory_us",
    "device.execute_us",
    "device.execute_calls",
    "task.kernel.fused_us",
    "task.kernel.fused_agg_us",
    "task.kernel.filter_bitmap_us",
    "task.kernel.hash_build_calls",
    "task.kernel.hash_probe_calls",
    "trace.overhead_frac",
];

fn json_line(r: &Report, keep: &[&str]) -> String {
    let metrics: Vec<String> = keep
        .iter()
        .map(|&name| {
            let (v, unit) = r
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or((0.0, "count"), |(_, v, u)| (*v, *u));
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// `--workload all`: each workload in a process of its own (so that
/// `peak_rss_mib` is per workload), one after the other.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for w in Workload::ALL {
        println!("== {}", w.name());
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        all_ok &= matches!(status, Ok(s) if s.success());
    }
    println!("all workloads: {}", ok(all_ok));
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <sql_tpch_cold|plan_warm_resident|sched_multi_tenant|all> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("error: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let report = if args.trace {
        run_traced(workload, args.seed, args.seconds)
    } else {
        run_untraced(workload, args.seed, args.seconds)
    };
    println!(
        "workload {} seed {} trace {}",
        workload.name(),
        args.seed,
        args.trace as u8
    );
    for (name, v, unit) in &report.metrics {
        println!("{name:<44} {v:>16.6} {unit}");
    }
    for note in &report.notes {
        println!("# {note}");
    }
    let keep: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", json_line(&report, keep));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `key` in `BENCHMARK.json`, in order.
    fn listed(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let section = &text[start..];
        let section = &section[..section.find(']').expect("list closes")];
        section
            .split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn json_metric_lists_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), END_TO_END);
        assert_eq!(listed("per_layer"), PER_LAYER);
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed("workloads"), workloads);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(vec![3.0, 1.0, 2.0, 4.0]), 2.5);
        assert!(median(Vec::new()).is_nan());
    }
}
