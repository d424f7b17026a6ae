//! The three workloads: inputs generated from the seed, one run of a
//! grid point through the public session API, and the checks every
//! simulated output must pass.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fasttrack_bench::runner::{
    attribution_csv, health_json, sweep_csv, topology_of, FallibleSweepOptions, NocUnderTest,
    PointAttribution, PointHealth, SweepGrid, SweepRow, SweepTiming,
};
use fasttrack_core::attribution::{AttributionConfig, AttributionReport};
use fasttrack_core::fallback::FallbackConfig;
use fasttrack_core::fault::{FaultPlan, StormSpec};
use fasttrack_core::kernel::RouteLut;
use fasttrack_core::monitor::{HealthSummary, MonitorConfig};
use fasttrack_core::packet::Delivery;
use fasttrack_core::queue::InjectQueues;
use fasttrack_core::shg::ShgBackend;
use fasttrack_core::sim::{SessionBackend, SimOutcome, SimReport, SimSession, TrafficSource};
use fasttrack_core::stats::LatencyStats;
use fasttrack_core::sweep::{point_seed, splitmix64, sweep_fallible, SweepError};
use fasttrack_core::topology::{TopoRouteLut, TopologySpec};
use fasttrack_mesh::{mesh_distance, MeshBackend, MeshConfig};
use fasttrack_traffic::graph::graph_messages;
use fasttrack_traffic::graph_gen::{rmat, road_network};
use fasttrack_traffic::matrix::{circuit, power_law};
use fasttrack_traffic::partition::Partition;
use fasttrack_traffic::pattern::Pattern;
use fasttrack_traffic::source::{BernoulliSource, Message, MessageBatchSource};
use fasttrack_traffic::spmv::spmv_messages;

use crate::trace::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TorusSweep,
    StormObserved,
    AppTraces,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "torus_sweep" => Some(Workload::TorusSweep),
            "storm_observed" => Some(Workload::StormObserved),
            "app_traces" => Some(Workload::AppTraces),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TorusSweep => "torus_sweep",
            Workload::StormObserved => "storm_observed",
            Workload::AppTraces => "app_traces",
        }
    }
}

/// Input sizes: `FULL` is what the benchmark measures, `SMOKE` the
/// reduced size its smoke test runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    sweep_packets: u64,
    storm_packets: u64,
    /// Divisor applied to every application trace's size.
    trace_div: usize,
}

pub const FULL: Scale = Scale {
    sweep_packets: 1000,
    storm_packets: 1000,
    trace_div: 1,
};

pub const SMOKE: Scale = Scale {
    sweep_packets: 30,
    storm_packets: 30,
    trace_div: 16,
};

/// The engine family a point runs on; per-layer engine metrics are
/// keyed by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Torus,
    Torus2ch,
    Shg,
    Mesh,
}

impl Engine {
    pub const ALL: [Engine; 4] = [Engine::Torus, Engine::Torus2ch, Engine::Shg, Engine::Mesh];

    pub fn name(self) -> &'static str {
        match self {
            Engine::Torus => "torus",
            Engine::Torus2ch => "torus2ch",
            Engine::Shg => "shg",
            Engine::Mesh => "mesh",
        }
    }
}

pub enum Traffic {
    Bernoulli {
        pattern: Pattern,
        rate: f64,
        packets_per_pe: u64,
    },
    /// A closed batch of messages, shared by every point that runs it.
    Batch(Arc<Vec<Message>>),
}

/// One grid point: a fabric, its traffic, and (on storm_observed) its
/// fault storm and observers.
pub struct Job {
    pub nut: NocUnderTest,
    pub traffic: Traffic,
    pub seed: u64,
    pub storm: Option<FaultPlan>,
    pub observed: bool,
}

impl Job {
    pub fn engine(&self) -> Engine {
        match (&self.nut.topology, self.nut.channels) {
            (TopologySpec::Torus(_), 1) => Engine::Torus,
            (TopologySpec::Torus(_), _) => Engine::Torus2ch,
            (TopologySpec::Shg(_), _) => Engine::Shg,
            (TopologySpec::Mesh { .. }, _) => Engine::Mesh,
        }
    }

    /// Routers × channels: what one simulated cycle advances.
    pub fn router_channels(&self) -> u64 {
        (self.nut.num_nodes() * self.nut.channels) as u64
    }

    fn packets(&self) -> u64 {
        match &self.traffic {
            Traffic::Bernoulli { packets_per_pe, .. } => {
                packets_per_pe * self.nut.num_nodes() as u64
            }
            Traffic::Batch(messages) => messages.len() as u64,
        }
    }

    pub fn source(&self) -> Box<dyn TrafficSource> {
        let n = self.nut.side();
        match &self.traffic {
            Traffic::Bernoulli {
                pattern,
                rate,
                packets_per_pe,
            } => Box::new(BernoulliSource::new(
                n,
                *pattern,
                *rate,
                *packets_per_pe,
                self.seed,
            )),
            Traffic::Batch(messages) => Box::new(MessageBatchSource::new(n, messages.to_vec())),
        }
    }

    fn pattern_rate(&self) -> (Pattern, f64) {
        match &self.traffic {
            Traffic::Bernoulli { pattern, rate, .. } => (*pattern, *rate),
            Traffic::Batch(_) => unreachable!("only Bernoulli points render as sweep rows"),
        }
    }
}

/// Which observers a session attaches.
#[derive(Debug, Clone, Copy)]
pub struct Observers {
    pub monitor: bool,
    pub attribution: bool,
}

/// A workload's generated inputs. torus_sweep also keeps the
/// `SweepGrid` its untraced runs go through.
pub struct Prepared {
    pub workload: Workload,
    pub jobs: Vec<Job>,
    grid: Option<SweepGrid>,
}

const STORM_SALT: u64 = 0x5709_4ba5_e0b5_e7ed;

/// Generates every input from `seed` and builds each point's session
/// once without simulating a cycle. With a recorder, the calls into
/// each layer are spans under one `setup` span.
pub fn setup(workload: Workload, seed: u64, scale: Scale, rec: Option<&Recorder>) -> Prepared {
    let root = rec.map(|r| (r.open(), Instant::now()));
    let parent = root.map(|(id, _)| id);
    let (jobs, grid) = match workload {
        Workload::TorusSweep => {
            let nuts = [
                NocUnderTest::hoplite(8),
                NocUnderTest::fasttrack(8, 2, 1),
                NocUnderTest::fasttrack_inject(8, 2, 2),
                NocUnderTest::hoplite_x(8, 2),
            ];
            let patterns = [
                Pattern::Random,
                Pattern::Transpose,
                Pattern::Local { radius: 2 },
            ];
            let grid = SweepGrid::cross(&nuts, &patterns, &[0.05, 0.3, 1.0], seed)
                .with_packets_per_pe(scale.sweep_packets);
            let jobs = grid
                .points
                .iter()
                .enumerate()
                .map(|(i, p)| Job {
                    nut: p.nut.clone(),
                    traffic: Traffic::Bernoulli {
                        pattern: p.pattern,
                        rate: p.rate,
                        packets_per_pe: grid.packets_per_pe,
                    },
                    seed: point_seed(seed, i),
                    storm: None,
                    observed: false,
                })
                .collect();
            (jobs, Some(grid))
        }
        Workload::StormObserved => {
            let mut ft2 = NocUnderTest::fasttrack(8, 2, 2);
            ft2.channels = 2;
            ft2.label = format!("{}-2x", ft2.label);
            let nuts = [ft2, NocUnderTest::shg(8, 2), NocUnderTest::mesh(8, 4)];
            let mut jobs = Vec::new();
            for nut in &nuts {
                for pattern in [Pattern::Random, Pattern::Transpose] {
                    for rate in [0.05, 0.2] {
                        let job_seed = point_seed(seed, jobs.len());
                        let plan = span(rec, parent, "fault.plan", || {
                            storm_plan(&nut.topology, splitmix64(job_seed ^ STORM_SALT))
                        });
                        jobs.push(Job {
                            nut: nut.clone(),
                            traffic: Traffic::Bernoulli {
                                pattern,
                                rate,
                                packets_per_pe: scale.storm_packets,
                            },
                            seed: job_seed,
                            storm: Some(plan),
                            observed: true,
                        });
                    }
                }
            }
            (jobs, None)
        }
        Workload::AppTraces => {
            let traces: Vec<Arc<Vec<Message>>> = APP_TRACES
                .iter()
                .enumerate()
                .map(|(k, build)| {
                    Arc::new(span(rec, parent, "traffic.gen", || {
                        build(splitmix64(seed ^ k as u64), scale.trace_div)
                    }))
                })
                .collect();
            // Fabric-major, largest trace first: the pool hands each
            // worker a contiguous range, so with two workers both start
            // on the largest trace together. Peak memory then does not
            // depend on scheduling, and the longest jobs never straggle.
            let mut jobs = Vec::new();
            for nut in [NocUnderTest::hoplite(16), NocUnderTest::fasttrack(16, 2, 1)] {
                for messages in &traces {
                    jobs.push(Job {
                        nut: nut.clone(),
                        traffic: Traffic::Batch(Arc::clone(messages)),
                        seed,
                        storm: None,
                        observed: false,
                    });
                }
            }
            (jobs, None)
        }
    };
    for job in &jobs {
        // The route tables are built again inside each session; building
        // them here, in traced runs only, times that layer on its own.
        if rec.is_some() {
            span(rec, parent, "route.build", || match &job.nut.topology {
                TopologySpec::Torus(cfg) => drop(RouteLut::build(cfg)),
                spec => drop(TopoRouteLut::build(&*topology_of(spec))),
            });
        }
        let mut source = span(rec, parent, "traffic.gen", || job.source());
        let probe = span(rec, parent, "session.build", || {
            run_session(job, observers(job), Some(0), &mut source)
        });
        assert_eq!(
            probe.report.cycles, 0,
            "a zero-cycle session simulates nothing"
        );
    }
    if let (Some(r), Some((id, t))) = (rec, root) {
        r.close(id, None, "setup", None, t);
    }
    Prepared {
        workload,
        jobs,
        grid,
    }
}

/// Runs `f`, as a span under `parent` when there is a recorder.
fn span<R>(rec: Option<&Recorder>, parent: Option<u64>, name: &str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => r.time(parent, name, f),
        None => f(),
    }
}

fn storm_plan(spec: &TopologySpec, seed: u64) -> FaultPlan {
    let storm = StormSpec::default();
    match spec {
        TopologySpec::Torus(cfg) => FaultPlan::storm(cfg, seed, &storm),
        spec => FaultPlan::storm_topo(&*topology_of(spec), seed, &storm),
    }
}

const PES: usize = 256;

/// The Fig 15 application traces, largest first, each built at its
/// paper shape from a seed (sizes divided by the scale's divisor) as a
/// message batch for 256 PEs.
const APP_TRACES: [fn(u64, usize) -> Vec<Message>; 5] = [
    // Graph push on a road network (roadNet-CA shape).
    |seed, div| {
        let side = 500 / div;
        let partition = Partition::Grid2d { side: side as u32 };
        graph_messages(&road_network(side, 0.01, seed), PES, partition)
    },
    // SpMV on a power-law matrix (human_gene2 shape).
    |seed, div| {
        spmv_messages(
            &power_law(3500 / div, 120, 1.6, seed),
            PES,
            Partition::Cyclic,
        )
    },
    // Graph push on an R-MAT graph (wiki-Vote shape).
    |seed, div| {
        let scale = 13 - div.ilog2();
        graph_messages(
            &rmat(scale, 103_000 / div, 0.57, 0.19, 0.19, seed),
            PES,
            Partition::Cyclic,
        )
    },
    // SpMV on circuit-class matrices (bomhof_circuit_1 and add20 shapes).
    |seed, div| spmv_messages(&circuit(2624 / div, 5, 2, 4, seed), PES, Partition::Cyclic),
    |seed, div| spmv_messages(&circuit(2395 / div, 4, 2, 3, seed), PES, Partition::Cyclic),
];

pub fn observers(job: &Job) -> Observers {
    Observers {
        monitor: job.observed,
        attribution: job.observed,
    }
}

/// Runs `job` through a `SimSession` for its backend. Storm points on
/// the torus arm the standard fallback chains.
pub fn run_session<T: TrafficSource>(
    job: &Job,
    obs: Observers,
    max_cycles: Option<u64>,
    source: &mut T,
) -> SimOutcome {
    match &job.nut.topology {
        TopologySpec::Torus(cfg) => {
            let mut session = SimSession::new(cfg);
            if job.nut.channels > 1 {
                session = session.channels(job.nut.channels);
            }
            if job.storm.is_some() {
                session = session
                    .with_fallback(&FallbackConfig::standard())
                    .expect("the standard chains are valid on every torus");
            }
            finish(session, job, obs, max_cycles, source)
        }
        TopologySpec::Shg(cfg) => finish(
            SimSession::with_backend(ShgBackend::new(*cfg)),
            job,
            obs,
            max_cycles,
            source,
        ),
        TopologySpec::Mesh { n, depth } => {
            let cfg = MeshConfig::new(*n, *depth).expect("built-in mesh specs are valid");
            finish(
                SimSession::with_backend(MeshBackend::new(&cfg)),
                job,
                obs,
                max_cycles,
                source,
            )
        }
    }
}

fn finish<B: SessionBackend, T: TrafficSource>(
    mut session: SimSession<'static, B>,
    job: &Job,
    obs: Observers,
    max_cycles: Option<u64>,
    source: &mut T,
) -> SimOutcome {
    if let Some(plan) = &job.storm {
        session = session.with_faults(plan);
    }
    if obs.monitor {
        session = session.with_monitor(MonitorConfig::default());
    }
    if obs.attribution {
        session = session.with_attribution(AttributionConfig::default());
    }
    if let Some(cycles) = max_cycles {
        session = session.max_cycles(cycles);
    }
    session
        .run(source)
        .expect("storm plans are drawn valid for their topology")
}

/// A source wrapper timing every `pump` call and counting the XY hops
/// of delivered packets (the mesh engine's route decisions, which it
/// does not count itself).
pub struct Timed<T> {
    inner: T,
    pub pump: Duration,
    pub calls: u64,
    pub first: Option<Instant>,
    pub xy_decisions: u64,
}

impl<T> Timed<T> {
    pub fn new(inner: T) -> Self {
        Timed {
            inner,
            pump: Duration::ZERO,
            calls: 0,
            first: None,
            xy_decisions: 0,
        }
    }
}

impl<T: TrafficSource> TrafficSource for Timed<T> {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        let t = Instant::now();
        self.inner.pump(cycle, queues);
        self.pump += t.elapsed();
        self.calls += 1;
        self.first.get_or_insert(t);
    }

    fn on_delivery(&mut self, delivery: &Delivery) {
        // One route computation at every router on the XY path,
        // including the ejecting one.
        self.xy_decisions += u64::from(mesh_distance(delivery.packet.src, delivery.packet.dst)) + 1;
        self.inner.on_delivery(delivery);
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }
}

/// What one point produced.
pub struct PointResult {
    pub report: SimReport,
    pub attribution: Option<AttributionReport>,
    pub health: Option<HealthSummary>,
    /// Host seconds the point took on its worker.
    pub secs: f64,
    /// Mesh route decisions (traced runs only).
    pub xy_decisions: u64,
}

impl PointResult {
    fn from_outcome(out: SimOutcome, secs: f64, xy_decisions: u64) -> Self {
        PointResult {
            health: out.monitor.as_ref().map(|m| m.summary()),
            attribution: out.attribution,
            report: out.report,
            secs,
            xy_decisions,
        }
    }
}

/// One pass over every point.
pub struct Rep {
    pub wall: f64,
    pub results: Vec<Result<PointResult, String>>,
    pub render_secs: f64,
    pub rendered_bytes: usize,
}

fn panic_message(e: SweepError) -> String {
    format!("point failed: {e}")
}

/// Runs every point once on `workers` pool workers and renders the
/// results. Untraced torus_sweep passes go through `SweepGrid`; every
/// other pass drives the sessions itself. With a recorder, each point
/// records a `job` span holding its session span (named after its
/// engine) and the session's aggregated `traffic.pump` calls.
pub fn run_rep(prep: &Prepared, workers: usize, rec: Option<(&Recorder, u64)>) -> Rep {
    let t0 = Instant::now();
    let results: Vec<Result<PointResult, String>> = match (rec, &prep.grid) {
        (None, Some(grid)) => {
            let opts = FallibleSweepOptions {
                threads: workers,
                retries: 0,
                cycle_budget: None,
            };
            grid.run_fallible(&opts)
                .into_iter()
                .map(|row| {
                    row.map(|r| PointResult {
                        report: r.report,
                        attribution: None,
                        health: None,
                        secs: 0.0,
                        xy_decisions: 0,
                    })
                    .map_err(panic_message)
                })
                .collect()
        }
        (None, None) => pool(prep, workers, |_, job| {
            let t = Instant::now();
            let out = run_session(job, observers(job), None, &mut job.source());
            PointResult::from_outcome(out, t.elapsed().as_secs_f64(), 0)
        }),
        (Some((r, rep_id)), _) => {
            let pool_id = r.open();
            let pool_t = Instant::now();
            let results = pool(prep, workers, |i, job| {
                let job_id = r.open();
                let t = Instant::now();
                let mut source = Timed::new(job.source());
                let run_id = r.open();
                let run_t = Instant::now();
                let out = run_session(job, observers(job), None, &mut source);
                let name = if job.observed {
                    "session.observed".to_string()
                } else {
                    engine_span(job.engine().name())
                };
                r.push(
                    r.open(),
                    Some(run_id),
                    "traffic.pump",
                    Some(i),
                    source.first.unwrap_or(run_t),
                    source.pump,
                    source.calls,
                );
                r.close(run_id, Some(job_id), &name, Some(i), run_t);
                r.close(job_id, Some(pool_id), "job", Some(i), t);
                PointResult::from_outcome(out, t.elapsed().as_secs_f64(), source.xy_decisions)
            });
            r.close(pool_id, Some(rep_id), "pool.sweep", None, pool_t);
            results
        }
    };
    let t = Instant::now();
    let text = render(prep, &results);
    let render_secs = t.elapsed().as_secs_f64();
    if let Some((r, rep_id)) = rec {
        r.close(r.open(), Some(rep_id), "output.render", None, t);
    }
    Rep {
        wall: t0.elapsed().as_secs_f64(),
        results,
        render_secs,
        rendered_bytes: text.len(),
    }
}

/// Span name of an unobserved session run on `engine`.
pub fn engine_span(engine: &str) -> String {
    format!("engine.{engine}")
}

fn pool<R: Send, F>(prep: &Prepared, workers: usize, f: F) -> Vec<Result<R, String>>
where
    F: Fn(usize, &Job) -> R + Sync,
{
    let indices: Vec<usize> = (0..prep.jobs.len()).collect();
    sweep_fallible(indices, workers, 0, |_, _attempt, &i| {
        Ok(f(i, &prep.jobs[i]))
    })
    .into_iter()
    .map(|r| r.map_err(panic_message))
    .collect()
}

/// Renders a pass's results with the `bench::runner` renderer a user of
/// that workload reads: the sweep CSV, the per-point health JSON plus
/// attribution CSV, or the per-job timing summary.
fn render(prep: &Prepared, results: &[Result<PointResult, String>]) -> String {
    let ok = || {
        prep.jobs
            .iter()
            .enumerate()
            .zip(results)
            .filter_map(|((i, job), r)| r.as_ref().ok().map(|r| (i, job, r)))
    };
    match prep.workload {
        Workload::TorusSweep => {
            let rows: Vec<SweepRow> = ok()
                .map(|(_, job, r)| {
                    let (pattern, rate) = job.pattern_rate();
                    SweepRow {
                        label: job.nut.label.clone(),
                        channels: job.nut.channels,
                        pattern,
                        rate,
                        seed: job.seed,
                        report: r.report.clone(),
                    }
                })
                .collect();
            sweep_csv(&rows)
        }
        Workload::StormObserved => {
            let mut health = Vec::new();
            let mut attribution = Vec::new();
            for (index, job, r) in ok() {
                let (pattern, rate) = job.pattern_rate();
                let (label, seed) = (job.nut.label.clone(), job.seed);
                if let Some(h) = &r.health {
                    health.push(PointHealth {
                        index,
                        label: label.clone(),
                        pattern,
                        rate,
                        seed,
                        health: h.clone(),
                    });
                }
                if let Some(a) = &r.attribution {
                    attribution.push(PointAttribution {
                        index,
                        label,
                        pattern,
                        rate,
                        seed,
                        attribution: a.clone(),
                    });
                }
            }
            health_json(&health) + &attribution_csv(&attribution)
        }
        Workload::AppTraces => {
            SweepTiming::new(ok().map(|(_, _, r)| r.secs).collect()).render_text()
        }
    }
}

/// Checks one point's simulated output. Every point must finish
/// untruncated and conserve packets; on healthy fabrics every injected
/// packet must arrive; observers must agree with the report.
pub fn check(job: &Job, r: &PointResult) -> Result<(), String> {
    let rep = &r.report;
    let s = &rep.stats;
    if rep.truncated {
        return Err("truncated".into());
    }
    if !rep.conserved() {
        return Err("packet conservation violated".into());
    }
    if s.enqueued != job.packets() {
        return Err(format!(
            "enqueued {} of {} packets",
            s.enqueued,
            job.packets()
        ));
    }
    if job.storm.is_none() && (s.delivered != s.injected || s.injected != s.enqueued) {
        return Err(format!(
            "healthy fabric delivered {} of {} injected",
            s.delivered, s.injected
        ));
    }
    if job.observed {
        let h = r.health.as_ref().ok_or("monitor missing")?;
        if h.delivered != s.delivered || h.injected != s.injected || h.dropped != s.dropped {
            return Err("monitor disagrees with the report".into());
        }
        // Attribution's exact-sum misses (`mismatches`) are reported as
        // the `observe.attribution_mismatches` metric, not as failures:
        // packets a fallback chain moves to a sibling channel lose their
        // attribution today.
        // The mesh engine keeps no `route_decisions` counter for the
        // attribution's decision counts to reconcile against.
        let a = r.attribution.as_ref().ok_or("attribution missing")?;
        if job.engine() != Engine::Mesh && !a.reconciled() {
            return Err("attribution decisions do not reconcile".into());
        }
    }
    Ok(())
}

/// Exact sum of a latency population, recovered from its mean (exact
/// for sums below 2^52).
pub fn latency_sum(l: &LatencyStats) -> u64 {
    (l.mean() * l.count() as f64).round() as u64
}

/// FNV-1a over every per-point simulated statistic (and observer
/// totals), in point order. Host timings never enter it.
pub fn digest(jobs: &[Job], results: &[Result<PointResult, String>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (job, r) in jobs.iter().zip(results) {
        eat(job.seed);
        let Ok(r) = r else {
            eat(u64::MAX);
            continue;
        };
        let (rep, s) = (&r.report, &r.report.stats);
        let (tl, nl) = (&s.total_latency.0, &s.network_latency.0);
        for v in [
            rep.cycles,
            rep.nodes as u64,
            u64::from(rep.truncated),
            rep.in_flight as u64,
            s.enqueued,
            s.injected,
            s.delivered,
            s.dropped,
            tl.count(),
            latency_sum(tl),
            tl.min(),
            tl.max(),
            nl.count(),
            latency_sum(nl),
            nl.max(),
            s.link_usage.short_hops,
            s.link_usage.express_hops,
            s.ports.total_deflections(),
            s.injection_stalls,
            s.rerouted,
            s.fallback_demotions,
            s.fallback_channel_switches,
            s.route_decisions,
        ] {
            eat(v);
        }
        if let Some(a) = &r.attribution {
            a.component_cycles.iter().for_each(|&c| eat(c));
            eat(a.dropped_packets);
            eat(a.mismatches);
        }
        if let Some(hs) = &r.health {
            for v in [
                hs.deflections,
                hs.stalls,
                hs.rerouted,
                hs.reports.len() as u64,
            ] {
                eat(v);
            }
        }
    }
    h
}

/// Host seconds each observer adds, measured per point as the run's
/// time with all observers minus its time without that one; plus the
/// no-observer run, recorded as the engine's span. Every variant's
/// report must equal the fully observed one's (observers are passive).
pub struct ObserverCost {
    pub monitor_s: f64,
    pub attribution_s: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
}

pub fn observer_cost(prep: &Prepared, workers: usize, rec: &Recorder, parent: u64) -> ObserverCost {
    let both = Observers {
        monitor: true,
        attribution: true,
    };
    let variants = [
        (both, "observe.full".to_string()),
        (
            Observers {
                monitor: false,
                ..both
            },
            "observe.no_monitor".to_string(),
        ),
        (
            Observers {
                attribution: false,
                ..both
            },
            "observe.no_attribution".to_string(),
        ),
    ];
    let results = pool(prep, workers, |i, job| {
        let mut secs = Vec::new();
        let mut reports = Vec::new();
        let bare = Observers {
            monitor: false,
            attribution: false,
        };
        let bare_name = engine_span(job.engine().name());
        for (obs, name) in variants.iter().chain([(bare, bare_name)].iter()) {
            let mut source = Timed::new(job.source());
            let id = rec.open();
            let t = Instant::now();
            let out = run_session(job, *obs, None, &mut source);
            secs.push(t.elapsed().as_secs_f64());
            rec.push(
                rec.open(),
                Some(id),
                "observe.pump",
                Some(i),
                source.first.unwrap_or(t),
                source.pump,
                source.calls,
            );
            rec.close(id, Some(parent), name, Some(i), t);
            reports.push(out.report);
        }
        (secs, reports)
    });
    let mut cost = ObserverCost {
        monitor_s: 0.0,
        attribution_s: 0.0,
        attempted: 0,
        failures: Vec::new(),
    };
    for r in results {
        cost.attempted += 4;
        match r {
            Ok((secs, reports)) => {
                cost.monitor_s += secs[0] - secs[1];
                cost.attribution_s += secs[0] - secs[2];
                if reports.iter().any(|rep| *rep != reports[0]) {
                    cost.failures
                        .push("an observer changed the simulated report".into());
                }
            }
            Err(e) => cost.failures.push(e),
        }
    }
    cost
}
