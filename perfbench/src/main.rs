//! End-to-end and per-layer benchmark of the FastTrack simulator.
//!
//! ```text
//! perfbench --workload <torus_sweep|storm_observed|app_traces> --seed <n>
//!           --seconds <s> --trace <0|1> [--workers <k>] [--scale full|smoke]
//! ```
//!
//! Prints a provenance line, a digest of every simulated statistic,
//! and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics untraced, per-layer
//! metrics traced). See README.md for what each metric measures.

mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Recorder;
use workload::{Engine, Prepared, Rep, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <torus_sweep|storm_observed|app_traces> \
--seed <n> --seconds <s> --trace <0|1> [--workers <k>] [--scale full|smoke]";

/// A run repeats its set-up at least this many times and for at least
/// `SETUP_MIN_SECS`; `setup_s` is the median pass.
const SETUP_MIN_SAMPLES: usize = 7;
const SETUP_MIN_SECS: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    workers: usize,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut args = Args {
        workload: Workload::TorusSweep,
        seed: 0,
        seconds: 0,
        trace: false,
        workers: nproc,
        scale: workload::FULL,
    };
    let (mut have_workload, mut have_seed, mut have_seconds) = (false, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Workload::parse(&value).ok_or(format!("unknown workload {value}"))?;
                have_workload = true;
            }
            "--seed" => {
                args.seed = number()?;
                have_seed = true;
            }
            "--seconds" => {
                args.seconds = number()?;
                have_seconds = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--workers" => {
                // The pool never runs more workers than the machine has cores.
                args.workers = usize::try_from(number()?)
                    .map_err(|_| "--workers out of range".to_string())?
                    .clamp(1, nproc);
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => workload::FULL,
                    "smoke" => workload::SMOKE,
                    _ => return Err(format!("--scale takes full or smoke, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(have_workload && have_seed && have_seconds) {
        return Err("--workload, --seed and --seconds are required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let provenance = provenance(&args);
    println!("provenance {provenance}");
    let result = if args.trace {
        traced(&args, &provenance)
    } else {
        untraced(&args)
    };
    println!("digest {:016x}", result.digest);
    println!("{}", result.json());
    ExitCode::SUCCESS
}

/// What a run found, ready to print.
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    digest: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The passes of one run, with their checks applied.
struct Passes {
    attempted: u64,
    failures: Vec<String>,
    digest: u64,
}

impl Passes {
    fn new() -> Self {
        Passes {
            attempted: 0,
            failures: Vec::new(),
            digest: 0,
        }
    }

    /// Checks every point of `rep`, and that the pass simulated exactly
    /// what the first pass did.
    fn check(&mut self, prep: &Prepared, rep: &Rep) {
        for (i, (job, r)) in prep.jobs.iter().zip(&rep.results).enumerate() {
            self.attempted += 1;
            let verdict = r
                .as_ref()
                .map_err(String::clone)
                .and_then(|r| workload::check(job, r));
            if let Err(e) = verdict {
                eprintln!("point {i} ({}) failed: {e}", job.nut.label);
                self.failures.push(e);
            }
        }
        let digest = workload::digest(&prep.jobs, &rep.results);
        if self.attempted == prep.jobs.len() as u64 {
            self.digest = digest;
        } else if digest != self.digest {
            eprintln!("a pass simulated different statistics than the first pass");
            self.failures.push("nondeterministic pass".into());
        }
    }
}

/// Repeats the set-up and returns the last pass's inputs with every
/// pass's host seconds.
fn timed_setup(args: &Args) -> (Prepared, Vec<f64>) {
    let mut secs: Vec<f64> = Vec::new();
    let mut prep = None;
    while secs.len() < SETUP_MIN_SAMPLES || secs.iter().sum::<f64>() < SETUP_MIN_SECS {
        drop(prep.take()); // free the previous inputs before building the next
        let t = Instant::now();
        prep = Some(workload::setup(args.workload, args.seed, args.scale, None));
        secs.push(t.elapsed().as_secs_f64());
    }
    (prep.expect("at least one set-up pass"), secs)
}

/// Passes every run makes whatever its `--seconds`: a warm-up pass and
/// one timed pass.
const MIN_PASSES: usize = 2;

/// Whether another pass still fits in the run's `--seconds`, given the
/// passes made since `passes_started` (at least `MIN_PASSES` always run).
fn another_pass(start: Instant, budget: Duration, passes_started: Instant, passes: usize) -> bool {
    if passes < MIN_PASSES {
        return true;
    }
    let per_pass = passes_started.elapsed() / passes as u32;
    start.elapsed() + per_pass <= budget
}

fn untraced(args: &Args) -> Outcome {
    let start = Instant::now();
    let (prep, setup_secs) = timed_setup(args);
    let mut passes = Passes::new();
    let mut reps = Vec::new();
    let mut peak_rss = f64::NAN;
    let passes_started = Instant::now();
    while another_pass(
        start,
        Duration::from_secs(args.seconds),
        passes_started,
        reps.len(),
    ) {
        let rep = workload::run_rep(&prep, args.workers, None);
        passes.check(&prep, &rep);
        reps.push(rep);
        if reps.len() == 1 {
            // What one run of the workload needs. Later passes only add
            // allocator fragmentation, which grows with the pass count.
            peak_rss = peak_rss_mb();
        }
    }
    let mut metrics = Vec::new();
    let mut m =
        |name: &str, value: f64, unit: &'static str| metrics.push((name.to_string(), value, unit));
    let sim = SimTotals::of(&prep, &reps[0]);
    // The first pass warms caches and the allocator and is not timed.
    // Every timed pass simulates the same work (the digest checks it),
    // so the run's throughput is that work times the timed passes over
    // their total host time. The host's speed drifts between slow and
    // fast spells lasting tens of seconds; a median pass would report
    // whichever spell filled more of the run, while this total weighs
    // each by its share of the run.
    let timed = &reps[1..];
    let timed_wall: f64 = timed.iter().map(|r| r.wall).sum();
    let timed_n = timed.len() as f64;
    m("wall_s", timed_wall / timed_n, "s");
    m("setup_s", median(setup_secs), "s");
    m(
        "packets_per_s",
        sim.delivered as f64 * timed_n / timed_wall,
        "1/s",
    );
    m(
        "router_cycles_per_s",
        sim.router_cycles as f64 * timed_n / timed_wall,
        "1/s",
    );
    m("peak_rss_mb", peak_rss, "MB");
    m(
        "pass_rate",
        1.0 - passes.failures.len() as f64 / passes.attempted as f64,
        "ratio",
    );
    m(
        "sim_rate_per_pe",
        ratio(sim.delivered, sim.pe_cycles),
        "1/cycle",
    );
    m(
        "sim_avg_latency_cycles",
        sim.latency_sum as f64 / sim.latency_count as f64,
        "cycles",
    );
    m(
        "sim_delivered_fraction",
        ratio(sim.delivered, sim.injected),
        "ratio",
    );
    m("sim_makespan_cycles", sim.cycles as f64, "cycles");
    eprintln!(
        "{}: {} passes of {} points, {} workers, pass walls {:?}",
        args.workload.name(),
        reps.len(),
        prep.jobs.len(),
        args.workers,
        reps.iter()
            .map(|r| (r.wall * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    Outcome {
        attempted: passes.attempted,
        failures: passes.failures,
        digest: passes.digest,
        metrics,
    }
}

/// Simulated totals over one pass's successful points.
#[derive(Default)]
struct SimTotals {
    delivered: u64,
    injected: u64,
    cycles: u64,
    pe_cycles: u64,
    router_cycles: u64,
    latency_sum: u64,
    latency_count: u64,
}

impl SimTotals {
    fn of(prep: &Prepared, rep: &Rep) -> Self {
        let mut t = SimTotals::default();
        for (job, r) in prep.jobs.iter().zip(&rep.results) {
            let Ok(r) = r else { continue };
            let (rep, s) = (&r.report, &r.report.stats);
            t.delivered += s.delivered;
            t.injected += s.injected;
            t.cycles += rep.cycles;
            t.pe_cycles += rep.cycles * rep.nodes as u64;
            t.router_cycles += rep.cycles * job.router_channels();
            t.latency_sum += workload::latency_sum(&s.total_latency.0);
            t.latency_count += s.total_latency.0.count();
        }
        t
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of host-time samples (sorted samples, the mean of the middle
/// two for an even count).
fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process so far (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The traced run: untraced and traced passes alternate, so the
/// difference of their medians is the tracing overhead; the spans of
/// the traced passes give each layer's self time.
fn traced(args: &Args, provenance: &str) -> Outcome {
    let start = Instant::now();
    let rec = Recorder::new();
    let prep = workload::setup(args.workload, args.seed, args.scale, Some(&rec));
    let observe = prep.jobs.iter().any(|j| j.observed).then(|| {
        let id = rec.open();
        let t = Instant::now();
        let cost = workload::observer_cost(&prep, args.workers, &rec, id);
        rec.close(id, None, "observe", None, t);
        cost
    });
    let mut passes = Passes::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let pairs_started = Instant::now();
    while another_pass(
        start,
        Duration::from_secs(args.seconds),
        pairs_started,
        traced.len(),
    ) {
        let rep = workload::run_rep(&prep, args.workers, None);
        passes.check(&prep, &rep);
        plain.push(rep.wall);
        let rep_id = rec.open();
        let t = Instant::now();
        let rep = workload::run_rep(&prep, args.workers, Some((&rec, rep_id)));
        rec.close(rep_id, None, "pass", None, t);
        passes.check(&prep, &rep);
        traced.push(rep);
    }
    let mut attempted = passes.attempted;
    let mut failures = passes.failures;
    if let Some(cost) = &observe {
        attempted += cost.attempted;
        failures.extend(cost.failures.iter().cloned());
    }
    let spans = rec.into_spans();
    let self_time = trace::self_times(&spans);
    let st = |name: &str| self_time.get(name).copied().unwrap_or(0.0);
    let passes_n = traced.len() as f64;
    // Engine spans come from the traced passes, or on storm_observed
    // from the single no-observer pass, so observer time is not charged
    // to the engine.
    let engine_passes = if observe.is_some() { 1.0 } else { passes_n };

    let mut decisions: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut deflections, mut stalls) = (0u64, 0u64);
    let (mut dropped, mut rerouted, mut demotions, mut switches) = (0u64, 0u64, 0u64, 0u64);
    let (mut packets, mut mismatches) = (0u64, 0u64);
    for (job, r) in prep.jobs.iter().zip(&traced[0].results) {
        let Ok(r) = r else { continue };
        let s = &r.report.stats;
        let made = if job.engine() == Engine::Mesh {
            r.xy_decisions
        } else {
            s.route_decisions
        };
        *decisions.entry(job.engine().name()).or_default() += made;
        deflections += s.ports.total_deflections();
        stalls += s.injection_stalls;
        dropped += s.dropped;
        rerouted += s.rerouted;
        demotions += s.fallback_demotions;
        switches += s.fallback_channel_switches;
        packets += s.enqueued;
        mismatches += r.attribution.as_ref().map_or(0, |a| a.mismatches);
    }

    let mut metrics = Vec::new();
    let mut m =
        |name: &str, value: f64, unit: &'static str| metrics.push((name.to_string(), value, unit));
    m("traffic.pump_s", st("traffic.pump") / passes_n, "s");
    m("traffic.packets", packets as f64, "count");
    m("traffic.gen_s", st("traffic.gen"), "s");
    m("route.build_s", st("route.build"), "s");
    // Engines that count their own route decisions (LUT lookups).
    let lut_engines = [Engine::Torus, Engine::Torus2ch, Engine::Shg];
    let busy = |e: Engine| st(&workload::engine_span(e.name())) / engine_passes;
    let made = |e: Engine| decisions.get(e.name()).copied().unwrap_or(0);
    let lut_decisions: u64 = lut_engines.iter().map(|&e| made(e)).sum();
    let lut_busy: f64 = lut_engines.iter().map(|&e| busy(e)).sum();
    m(
        "route.lookups_per_s",
        if lut_busy > 0.0 {
            lut_decisions as f64 / lut_busy
        } else {
            0.0
        },
        "1/s",
    );
    m("route.decisions", lut_decisions as f64, "count");
    for e in Engine::ALL {
        m(&format!("engine.{}.busy_s", e.name()), busy(e), "s");
        m(
            &format!("engine.{}.ns_per_decision", e.name()),
            if made(e) > 0 {
                busy(e) * 1e9 / made(e) as f64
            } else {
                0.0
            },
            "ns",
        );
    }
    m(
        "engine.deflect_ratio",
        ratio(deflections, lut_decisions),
        "ratio",
    );
    m("engine.injection_stalls", stalls as f64, "count");
    m("fault.plan_s", st("fault.plan"), "s");
    m("fault.dropped", dropped as f64, "count");
    m("fault.rerouted", rerouted as f64, "count");
    m("fault.fallback_demotions", demotions as f64, "count");
    m("fault.channel_switches", switches as f64, "count");
    m(
        "fault.reroute_ratio",
        ratio(rerouted, rerouted + dropped),
        "ratio",
    );
    m(
        "observe.monitor_s",
        observe.as_ref().map_or(0.0, |c| c.monitor_s),
        "s",
    );
    m(
        "observe.attribution_s",
        observe.as_ref().map_or(0.0, |c| c.attribution_s),
        "s",
    );
    m("observe.attribution_mismatches", mismatches as f64, "count");
    let pool = PoolStats::of(&traced, args.workers);
    m("pool.busy_s", pool.busy, "s");
    m("pool.idle_s", pool.idle, "s");
    m("pool.efficiency", pool.efficiency, "ratio");
    m("pool.straggler_s", pool.straggler, "s");
    m(
        "output.render_s",
        median(traced.iter().map(|r| r.render_secs)),
        "s",
    );
    m("output.bytes", traced[0].rendered_bytes as f64, "bytes");
    m(
        "trace.overhead_s",
        median(traced.iter().map(|r| r.wall)) - median(plain),
        "s",
    );

    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(&spans, provenance)))
    {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    Outcome {
        attempted,
        failures,
        digest: passes.digest,
        metrics,
    }
}

/// Sweep-pool accounting, as medians over traced passes.
struct PoolStats {
    busy: f64,
    idle: f64,
    efficiency: f64,
    straggler: f64,
}

impl PoolStats {
    fn of(reps: &[Rep], workers: usize) -> Self {
        let busy = |r: &Rep| r.results.iter().flatten().map(|p| p.secs).sum::<f64>();
        let capacity = |r: &Rep| r.wall * workers as f64;
        PoolStats {
            busy: median(reps.iter().map(busy)),
            idle: median(reps.iter().map(|r| capacity(r) - busy(r))),
            efficiency: median(reps.iter().map(|r| busy(r) / capacity(r))),
            straggler: median(reps.iter().map(|r| {
                r.results
                    .iter()
                    .flatten()
                    .map(|p| p.secs)
                    .fold(0.0, f64::max)
            })),
        }
    }
}

/// Commit, dirty flag and a hash of the benchmarked sources (the only
/// provenance available when the tree is not a git checkout), plus the
/// machine and run parameters.
fn provenance(args: &Args) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = git(&["rev-parse", "HEAD"]);
    let dirty = commit
        .as_ref()
        .and_then(|_| git(&["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| !s.is_empty());
    format!(
        "{{\"commit\": {}, \"dirty\": {}, \"source_hash\": \"{:016x}\", \"nproc\": {}, \
         \"workers\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        commit.map_or("null".into(), |c| format!("\"{c}\"")),
        dirty.map_or("null".into(), |d| d.to_string()),
        source_hash(),
        std::thread::available_parallelism().map_or(1, usize::from),
        args.workers,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

/// FNV-1a over the path and bytes of every Rust source and manifest
/// under `crates/` and `perfbench/`, in sorted path order.
fn source_hash() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
