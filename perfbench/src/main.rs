//! Wall-clock serving benchmark for the PermDNN serving stack.
//!
//! One client drives `ModelRegistry::serve_traffic` in a closed loop: each
//! call waits for its reply before the next call is sent. The loop is closed
//! because the stack has no wall-clock arrival path (arrivals are ticks); an
//! open loop would need a queue on the benchmark side and would time that
//! queue instead of the program.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics. A traced run
//! (`--trace 1`) first repeats the untraced loop for half its time, then
//! serves with spans for the other half and reports the per-layer metrics.
//! See `perfbench/README.md` for every metric's definition.
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_pd --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--workload all` runs the three workloads in turn, each in a child
//! process of its own, and each prints its table and result line.

mod metrics;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;

use permdnn_core::Scratch;
use permdnn_nn::MlpClassifier;
use permdnn_runtime::{ModelRegistry, ParallelExecutor};

use metrics::{median, percentile, ratio, result_line, sorted, Metric};
use trace::{loader, ns_since, replay_call, self_time, Tracer};
use workload::{Setup, Workload, SETUP_REPEATS, WORKERS};

/// Share of the measured time spent warming up first, untimed.
const WARMUP_SHARE: f64 = 0.1;
/// Calls each loop makes at least, however short its time.
const MIN_CALLS: u64 = 3;
/// Every this many calls of a loop, starting with its first, one served
/// output is checked against the reference model.
const CHECK_EVERY: u64 = 16;
/// Replays per paged block when timing its decode.
const DECODE_REPS: usize = 5;
/// Largest gap allowed between the replayed FC spans and the forward span.
const FC_FORWARD_TOLERANCE: f64 = 0.10;

/// How long one run measures.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Timed calls: the latency sample count.
    pub calls: u64,
    pub metrics: Vec<Metric>,
}

/// One served call.
#[derive(Default)]
struct Call {
    span: trace::Span,
    completed: u64,
    batches: u64,
    /// Batches per tenant, in tenant order.
    tenant_batches: Vec<u64>,
    /// Batches × FC layers of the batch's model.
    weight_stages: u64,
    busy_ticks: u64,
    faults: u64,
    evictions: u64,
    bytes_faulted: u64,
    peak_resident: u64,
    /// Traced loops only.
    forward_ns: u64,
    self_ns: u64,
    fc_ns: u64,
}

impl Call {
    fn ns(&self) -> u64 {
        self.span.1 - self.span.0
    }
}

/// One loop's calls. Untraced loops keep 8 bytes per call, so the
/// benchmark's own records barely move `peak_rss_mb`.
#[derive(Default)]
struct Phase {
    call_ns: Vec<u64>,
    completed: u64,
    /// Traced loops only: each call's counters and spans, and the
    /// replayed kernels.
    calls: Vec<Call>,
    kernels: Vec<trace::KernelSpan>,
    /// Traced whole-load loops: calls whose forward spans broke nesting.
    nesting_errors: u64,
}

impl Phase {
    fn call_ns_median(&self) -> f64 {
        median(self.call_ns.iter().map(|&ns| ns as f64))
    }
}

/// The serving side of a run: the workload, its executor, the epoch spans
/// are measured from, and the requests attempted and failed by every loop,
/// warm-ups included.
struct Bench<'a> {
    setup: &'a Setup,
    exec: ParallelExecutor,
    seed: u64,
    epoch: Instant,
    next_call: u64,
    attempted: u64,
    failed: u64,
}

impl Bench<'_> {
    /// The whole-load model of tenant `t` that outputs are checked against:
    /// `models[t]` if the loop has one, else decoded from the snapshot now,
    /// to be dropped after the check.
    fn reference(&self, models: &[Arc<MlpClassifier>], t: usize) -> Arc<MlpClassifier> {
        models
            .get(t)
            .cloned()
            .unwrap_or_else(|| Arc::new(self.setup.tenants[t].reference()))
    }

    /// Counts, as one request each, the tenants whose model gives the
    /// probe input other logits than the model built.
    fn check_probes(&mut self, models: &[Arc<MlpClassifier>]) {
        for (t, tenant) in self.setup.tenants.iter().enumerate() {
            self.attempted += 1;
            if !tenant.probe_ok(&self.reference(models, t)) {
                eprintln!(
                    "tenant {}: loaded model differs from the model built",
                    tenant.id
                );
                self.failed += 1;
            }
        }
    }

    /// Serves calls on `reg` until `seconds` have passed (at least
    /// [`MIN_CALLS`]). Sampled outputs are checked against `models`, one per
    /// tenant, or against references decoded per check if it is empty. With
    /// a tracer, records the forward spans and replays each call's batches
    /// through `models` afterwards.
    fn closed_loop(
        &mut self,
        reg: &mut ModelRegistry,
        seconds: f64,
        models: &[Arc<MlpClassifier>],
        tracer: Option<&Tracer>,
    ) -> Phase {
        let mut phase = Phase::default();
        let mut scratch = Scratch::new();
        let start = Instant::now();
        let mut n = 0u64;
        while n < MIN_CALLS || start.elapsed().as_secs_f64() < seconds {
            let call = self.next_call;
            self.next_call += 1;
            let requests = self.setup.requests(self.seed, call);
            let offered = requests.len();
            // The reference forward runs a second pass over the weights
            // through the caches, so only a fixed sample of calls pays it.
            let sample = n
                .is_multiple_of(CHECK_EVERY)
                .then(|| requests[(call % offered as u64) as usize].clone());
            let replay_requests = tracer.map(|t| (t, requests.clone()));
            n += 1;

            let t0 = Instant::now();
            let served = reg.serve_traffic(&self.exec, &self.setup.traffic, requests);
            let t1 = Instant::now();

            self.attempted += offered as u64;
            let report = match served {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("call {call}: serve_traffic failed: {e}");
                    self.failed += offered as u64;
                    continue;
                }
            };
            let reference = sample
                .as_ref()
                .map(|s| self.reference(models, self.setup.tenant_index(&s.model_id)));
            self.failed +=
                Setup::failures(offered, sample.as_ref().zip(reference.as_deref()), &report) as u64;
            drop(reference);
            phase.call_ns.push((t1 - t0).as_nanos() as u64);
            phase.completed += report.serve.completed.len() as u64;
            let Some((tracer, requests)) = replay_requests else {
                continue;
            };

            let s = &report.serve.stats;
            let mut c = Call {
                span: (ns_since(self.epoch, t0), ns_since(self.epoch, t1)),
                completed: report.serve.completed.len() as u64,
                tenant_batches: vec![0; self.setup.tenants.len()],
                faults: s.blocks_faulted,
                evictions: s.evictions,
                bytes_faulted: s.bytes_faulted,
                peak_resident: s.peak_resident_bytes,
                ..Call::default()
            };
            for (id, m) in &report.serve.per_model {
                let t = self.setup.tenant_index(id);
                c.batches += m.batches as u64;
                c.tenant_batches[t] += m.batches as u64;
                c.busy_ticks += m.busy_ticks;
                c.weight_stages += m.batches as u64 * self.setup.tenants[t].labels.len() as u64;
            }

            let forwards: Vec<trace::Span> = tracer
                .take_forwards()
                .into_iter()
                .map(|(a, b)| (ns_since(self.epoch, a), ns_since(self.epoch, b)))
                .collect();
            let replay = replay_call(self.setup, models, &requests, &self.exec, &mut scratch)
                .expect("replayed batches match their models");
            c.fc_ns = replay.fc_ns;
            if self.setup.paged_budget.is_some() {
                // Paged stages run inside the registry, so the forward is
                // the replayed one and self time includes paging.
                c.forward_ns = replay.fc_ns + replay.glue_ns;
                c.self_ns = c.ns().saturating_sub(c.forward_ns);
            } else {
                let nested = forwards
                    .iter()
                    .all(|&(a, b)| c.span.0 <= a && a <= b && b <= c.span.1);
                c.self_ns = self_time(c.span, &forwards);
                c.forward_ns = c.ns() - c.self_ns;
                if !nested || forwards.is_empty() {
                    phase.nesting_errors += 1;
                }
            }
            phase.kernels.extend(replay.kernels);
            phase.calls.push(c);
        }
        phase
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Runs one workload.
pub fn run(workload: Workload, opt: &Options) -> RunResult {
    let setup = Setup::build(workload);
    let mut bench = Bench {
        setup: &setup,
        exec: ParallelExecutor::new(WORKERS),
        seed: opt.seed,
        epoch: Instant::now(),
        next_call: 0,
        attempted: 0,
        failed: 0,
    };
    let log = Arc::new(Tracer::default());
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut reg = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous registry and its models first: one lives at a
        // time.
        drop(reg.take());
        log.clear_loaded();
        let (r, secs) = setup.registry(loader(Arc::clone(&log), false));
        setup_times.push(secs);
        reg = Some(r);
    }
    let mut reg = reg.expect("at least one setup");
    // Whole-load checks run on the registry's own models. Paged weights live
    // in slots the benchmark cannot reach, so paged checks decode a
    // reference per check: no decoded copy stays alive beside the registry.
    let models = log.loaded();
    bench.check_probes(&models);

    let seconds = if opt.trace {
        opt.seconds / 2.0
    } else {
        opt.seconds
    };
    bench.closed_loop(&mut reg, seconds * WARMUP_SHARE, &models, None);
    let plain = bench.closed_loop(&mut reg, seconds, &models, None);

    if !opt.trace {
        let wall_s = plain.call_ns.iter().sum::<u64>() as f64 * 1e-9;
        let lat = sorted(plain.call_ns.iter().map(|&ns| ns as f64 * 1e-6));
        let values = [
            ratio(plain.completed as f64, wall_s),
            percentile(&lat, 0.5),
            percentile(&lat, 0.9),
            median(setup_times),
            peak_rss_mib(),
        ];
        let metrics = metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| Metric::new(name, v, unit))
            .collect();
        return RunResult {
            correct: bench.failed == 0,
            attempted: bench.attempted,
            failed: bench.failed,
            calls: plain.call_ns.len() as u64,
            metrics,
        };
    }

    drop((reg, models));
    log.clear_loaded();
    let tracer = Arc::new(Tracer::default());
    let (mut traced_reg, _) = setup.registry(loader(Arc::clone(&tracer), true));
    // Replays need every tenant's model: the registry's own where it has
    // them (so replays find the caches as the call left them), else
    // references. A traced run reports no memory metric.
    let models: Vec<Arc<MlpClassifier>> = if setup.paged_budget.is_some() {
        setup
            .tenants
            .iter()
            .map(|t| Arc::new(t.reference()))
            .collect()
    } else {
        tracer.loaded()
    };
    assert_eq!(models.len(), setup.tenants.len(), "one model per tenant");
    bench.check_probes(&models);
    bench.closed_loop(
        &mut traced_reg,
        seconds * WARMUP_SHARE,
        &models,
        Some(&tracer),
    );
    let traced = bench.closed_loop(&mut traced_reg, seconds, &models, Some(&tracer));
    let (metrics, consistent) = per_layer(&setup, &plain, &traced);
    RunResult {
        correct: bench.failed == 0 && consistent,
        attempted: bench.attempted,
        failed: bench.failed,
        calls: (plain.call_ns.len() + traced.call_ns.len()) as u64,
        metrics,
    }
}

/// The per-layer metrics of a traced run, and whether its self-consistency
/// checks passed.
fn per_layer(setup: &Setup, plain: &Phase, traced: &Phase) -> (Vec<Metric>, bool) {
    let calls = &traced.calls;
    let sum = |f: fn(&Call) -> u64| calls.iter().map(f).sum::<u64>() as f64;
    let med_us = |f: fn(&Call) -> u64| median(calls.iter().map(|c| f(c) as f64 * 1e-3));
    let call_ns = sum(|c| c.ns());
    let batches = sum(|c| c.batches);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };

    put("registry.call_us", med_us(|c| c.ns()));
    put("registry.self_us", med_us(|c| c.self_ns));
    put("registry.self_share", ratio(sum(|c| c.self_ns), call_ns));
    put("registry.mean_batch", ratio(sum(|c| c.completed), batches));
    // 1 tick = 1 µs.
    put(
        "registry.modeled_over_measured",
        ratio(sum(|c| c.busy_ticks) * 1e3, call_ns),
    );
    let forward_ns = sum(|c| c.forward_ns);
    put("model.forward_us", med_us(|c| c.forward_ns));
    put(
        "model.glue_share",
        ratio(forward_ns - sum(|c| c.fc_ns), forward_ns),
    );
    let kernel_ns: u64 = traced.kernels.iter().map(|k| k.ns).sum();
    put("executor.fc_us", med_us(|c| c.fc_ns));
    put(
        "executor.speedup",
        ratio(kernel_ns as f64, sum(|c| c.fc_ns)),
    );
    for f in metrics::KERNEL_FORMATS {
        let runs: Vec<&trace::KernelSpan> = traced
            .kernels
            .iter()
            .filter(|k| k.label == Some(f))
            .collect();
        let ns: u64 = runs.iter().map(|k| k.ns).sum();
        let macs: u64 = runs.iter().map(|k| k.macs).sum();
        put(
            &format!("kernel.{f}.us"),
            median(runs.iter().map(|k| k.ns as f64 * 1e-3)),
        );
        put(&format!("kernel.{f}.gmacs"), ratio(macs as f64, ns as f64));
    }
    let faults = sum(|c| c.faults);
    put("paging.faults_per_batch", ratio(faults, batches));
    put(
        "paging.hit_ratio",
        1.0 - ratio(faults, sum(|c| c.weight_stages)),
    );
    put(
        "paging.evictions_per_batch",
        ratio(sum(|c| c.evictions), batches),
    );
    let bytes_faulted = sum(|c| c.bytes_faulted);
    put(
        "paging.bytes_faulted_per_call",
        ratio(bytes_faulted, calls.len() as f64),
    );
    put(
        "paging.peak_resident_kb",
        calls.iter().map(|c| c.peak_resident).max().unwrap_or(0) as f64 / 1024.0,
    );
    let blocks = if setup.paged_budget.is_some() {
        trace::decode_blocks(setup, DECODE_REPS)
    } else {
        Vec::new()
    };
    for f in metrics::PAGED_FORMATS {
        let ns = blocks
            .iter()
            .filter(|b| b.label == Some(f))
            .map(|b| b.ns as f64 * 1e-3);
        put(&format!("paging.{f}.decode_us"), median(ns));
    }
    // Fault time is estimated: the registry counts the blocks it faults,
    // not which. A call's faults are spread evenly over its weight stages
    // (batches × blocks, per tenant), each priced at its own block's
    // replayed decode time. Per-byte rates would not do: small blocks cost
    // more per byte.
    let model_decode_ns: Vec<f64> = (0..setup.tenants.len())
        .map(|t| {
            blocks
                .iter()
                .filter(|b| b.tenant == t)
                .map(|b| b.ns as f64)
                .sum()
        })
        .collect();
    let fault_ns: f64 = calls
        .iter()
        .map(|c| {
            let every_stage_ns: f64 = c
                .tenant_batches
                .iter()
                .zip(&model_decode_ns)
                .map(|(&b, ns)| b as f64 * ns)
                .sum();
            ratio(c.faults as f64, c.weight_stages as f64) * every_stage_ns
        })
        .sum();
    put("paging.fault_share", ratio(fault_ns, call_ns));
    put(
        "trace.overhead_share",
        ratio(traced.call_ns_median(), plain.call_ns_median()) - 1.0,
    );

    // Self-consistency: forward spans nest in their call (so self plus
    // forward is the call), and the replayed FC spans account for the
    // forward span to within the tolerance.
    let mut consistent = true;
    if setup.paged_budget.is_none() {
        if traced.nesting_errors > 0 {
            eprintln!(
                "self-consistency: {} calls with unnested forward spans",
                traced.nesting_errors
            );
            consistent = false;
        }
        let fc = median(calls.iter().map(|c| c.fc_ns as f64));
        let fwd = median(calls.iter().map(|c| c.forward_ns as f64));
        let gap = ratio((fc - fwd).abs(), fwd);
        eprintln!(
            "self-consistency: replayed FC median {fc:.0} ns vs forward {fwd:.0} ns (gap {gap:.3})"
        );
        if gap > FC_FORWARD_TOLERANCE {
            eprintln!("self-consistency: gap exceeds {FC_FORWARD_TOLERANCE}");
            consistent = false;
        }
    }

    let metrics = metrics::per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let v = m[&name];
            Metric::new(name, v, unit)
        })
        .collect();
    (metrics, consistent)
}

/// The run's context, printed before the result line.
fn run_info(workload: &str, opt: &Options) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"run\": {{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"workers\": {WORKERS}, \"profile\": \"{profile}\", \"commit\": \"{}\"}}}}",
        opt.seed,
        opt.seconds,
        u8::from(opt.trace),
        commit()
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; "unknown" outside a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <batch_pd|interactive_b1|paged_zipf|all> --seed <u64> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<(String, Options)> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opt = Options {
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return None };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opt.seed = value.parse().ok()?,
            "--seconds" => opt.seconds = value.parse().ok().filter(|s: &f64| *s >= 0.0)?,
            "--trace" => {
                opt.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some((workload?, opt))
}

fn print_table(workload: &str, r: &RunResult) {
    println!("{workload}:");
    for m in &r.metrics {
        println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<34} {:>14.4} fraction ({} of {} requests, {} timed calls)",
        "failed_share",
        ratio(r.failed as f64, r.attempted as f64),
        r.failed,
        r.attempted,
        r.calls
    );
}

/// Runs every workload, one after another, each in a child process of its
/// own: `VmHWM` never goes down within a process, so this is how each
/// workload's `peak_rss_mb` stays its own.
fn run_all(opt: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &opt.seed.to_string()])
            .args(["--seconds", &opt.seconds.to_string()])
            .args(["--trace", if opt.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let Some((name, opt)) = parse_args() else {
        return usage();
    };
    if name == "all" {
        return run_all(&opt);
    }
    let Some(workload) = Workload::parse(&name) else {
        return usage();
    };
    println!("{}", run_info(&name, &opt));
    let r = run(workload, &opt);
    print_table(&name, &r);
    println!(
        "{}",
        result_line(r.correct, r.attempted, r.failed, &r.metrics)
    );
    if r.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAILED: {} of {} requests failed or the traced run was inconsistent",
            r.failed, r.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A few calls of every workload, untraced and traced: outputs are
    /// correct and every declared metric is reported.
    #[test]
    fn smoke_run_each_workload() {
        for w in Workload::ALL {
            for trace in [false, true] {
                // No time: every loop makes MIN_CALLS calls.
                let opt = Options {
                    seed: 7,
                    seconds: 0.0,
                    trace,
                };
                let r = run(w, &opt);
                assert_eq!(r.failed, 0, "{} trace={trace}", w.name());
                assert!(r.attempted > 0);
                let names: Vec<String> = r.metrics.iter().map(|m| m.name.clone()).collect();
                let expected: Vec<String> = if trace {
                    metrics::per_layer_names()
                        .into_iter()
                        .map(|(n, _)| n)
                        .collect()
                } else {
                    metrics::END_TO_END
                        .iter()
                        .map(|(n, _)| n.to_string())
                        .collect()
                };
                assert_eq!(names, expected);
                if !trace {
                    assert!(r.metrics.iter().all(|m| m.value > 0.0), "{}", w.name());
                }
            }
        }
    }

    #[test]
    fn call_inputs_are_a_function_of_seed_and_call() {
        let setup = Setup::build(Workload::PagedZipf);
        assert_eq!(setup.requests(3, 5), setup.requests(3, 5));
        assert_ne!(setup.requests(3, 5), setup.requests(4, 5));
        assert_ne!(setup.requests(3, 5), setup.requests(3, 6));
    }
}
