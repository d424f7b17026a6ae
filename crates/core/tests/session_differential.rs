//! Differential properties for the `SimSession` builder and the
//! hot-path routing kernel:
//!
//! * the route table ([`RouteLut`]) agrees with `compute_prefs` on every
//!   key a run can look up, for every small torus configuration — the
//!   table is the engine's only route resolution, so this pins it to
//!   the reference routing function;
//! * observers never perturb a run: a fully composed session reports
//!   exactly what a bare one does;
//! * a [`Probe`] sink counts every route decision on every backend;
//! * the batched driver must reproduce fresh-engine runs exactly.

use fasttrack_core::prelude::*;
use fasttrack_core::router::RouterClass;
use fasttrack_core::routing::compute_prefs;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Arbitrary FastTrack configuration with the paper's validity rules
/// (`D % R == 0`, `R` tiles the ring) enforced by construction.
fn arb_ft_config() -> impl Strategy<Value = NocConfig> {
    (2u16..=3, any::<u8>(), any::<bool>()).prop_map(|(n_exp, sel, full)| {
        let n = 1u16 << n_exp; // 4 or 8
        let policy = if full {
            FtPolicy::Full
        } else {
            FtPolicy::Inject
        };
        let mut variants = Vec::new();
        for d in 1..=n / 2 {
            for r in 1..=d {
                if d % r == 0 && n.is_multiple_of(r) {
                    variants.push((d, r));
                }
            }
        }
        let (d, r) = variants[sel as usize % variants.len()];
        NocConfig::fasttrack(n, d, r, policy).unwrap()
    })
}

/// A one-shot batch of random packets.
struct BatchSource {
    items: Vec<(usize, Coord)>,
    pushed: bool,
}

impl BatchSource {
    fn random(n: u16, per_pe: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let nodes = n as usize * n as usize;
        let mut items = Vec::new();
        for node in 0..nodes {
            for _ in 0..per_pe {
                let dst = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
                items.push((node, dst));
            }
        }
        BatchSource {
            items,
            pushed: false,
        }
    }
}

impl TrafficSource for BatchSource {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        if !self.pushed {
            for &(src, dst) in &self.items {
                queues.push(src, dst, cycle, 0);
            }
            self.pushed = true;
        }
    }
    fn exhausted(&self) -> bool {
        self.pushed
    }
}

/// A fault plan exercising every supported fault kind, drawn
/// deterministically from a seed (always torus-safe by construction).
fn small_plan(cfg: &NocConfig, seed: u64) -> FaultPlan {
    let spec = FaultSpec {
        dead_links: 1,
        transient_links: 1,
        fail_stop_routers: 1,
        stalled_injectors: 1,
        down_links: 0,
        window: (0, 200),
    };
    FaultPlan::random(cfg, seed ^ 0xFA17, &spec)
}

/// Hoplite for `n` in 2..=9 and every valid `FT(n², d, r)` with
/// `n <= 12` under both lane-change policies (`Inject` is FT-lite), each
/// with every link-pipeline setting below.
fn small_configs() -> Vec<NocConfig> {
    let pipelines = [
        LinkPipeline::NONE,
        LinkPipeline {
            short: 1,
            express: 0,
        },
        LinkPipeline {
            short: 0,
            express: 2,
        },
    ];
    let mut base: Vec<NocConfig> = (2..=9).map(|n| NocConfig::hoplite(n).unwrap()).collect();
    for n in 2..=12 {
        for d in 1..=n / 2 {
            for r in 1..=d {
                for policy in [FtPolicy::Full, FtPolicy::Inject] {
                    if let Ok(cfg) = NocConfig::fasttrack(n, d, r, policy) {
                        base.push(cfg);
                    }
                }
            }
        }
    }
    base.into_iter()
        .flat_map(|cfg| pipelines.map(|p| cfg.clone().with_link_pipeline(p)))
        .collect()
}

/// The route table is exhaustively equal to `compute_prefs`: every
/// router position (not just one per class), every input port the
/// router has, every destination. Fault masking and fallback demotion
/// act on the looked-up prefs, so this also covers faulted and
/// multi-channel runs.
#[test]
fn route_table_matches_compute_prefs_everywhere() {
    let configs = small_configs();
    let mut checked = 0u64;
    for cfg in &configs {
        let lut = RouteLut::build(cfg);
        let n = cfg.n();
        for id in 0..cfg.num_nodes() {
            let at = Coord::from_node_id(id, n);
            let class = RouterClass::of(cfg, at);
            for port in InPort::ALL.into_iter().filter(|&p| class.has_input(p)) {
                for dst_id in 0..cfg.num_nodes() {
                    let dst = Coord::from_node_id(dst_id, n);
                    assert_eq!(
                        lut.lookup(class, port, at, dst),
                        compute_prefs(cfg, class, port, at, dst),
                        "{} {:?} at {at} port {port} dst {dst}",
                        cfg.name(),
                        cfg.link_pipeline(),
                    );
                    checked += 1;
                }
            }
        }
    }
    // Hoplite 2..=9 plus FT/FT-lite up to 12, three pipelines each.
    assert!(configs.len() > 300, "{} configurations", configs.len());
    assert!(checked > 10_000_000, "{checked} lookups");
}

/// With no warmup, a [`Probe`] sink counts exactly the engine's route
/// decisions (injections included) on a single torus, a 2-channel bank
/// and an SHG, and its window is the run's cycle count.
#[test]
fn probe_counts_every_route_decision() {
    let ft = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full).unwrap();
    let hoplite = NocConfig::hoplite(8).unwrap();
    let shg = ShgConfig::new(8, 2).unwrap();
    let check = |name: &str, probe: &Probe, report: &SimReport| {
        let counted: u64 = (0..64)
            .flat_map(|node| OutPort::ALL.map(|port| probe.count(node, port)))
            .sum();
        assert!(report.stats.route_decisions > 0, "{name}");
        assert_eq!(counted, report.stats.route_decisions, "{name}");
        assert_eq!(probe.cycles(), report.cycles, "{name}");
    };

    let mut probe = Probe::new(64);
    let report = SimSession::new(&ft)
        .with_sink(&mut probe)
        .run(&mut BatchSource::random(8, 4, 1))
        .unwrap()
        .report;
    check("ft:8:2:1", &probe, &report);

    let mut probe = Probe::new(64);
    let report = SimSession::new(&hoplite)
        .channels(2)
        .with_sink(&mut probe)
        .run(&mut BatchSource::random(8, 4, 2))
        .unwrap()
        .report;
    check("hoplite:8 x2", &probe, &report);

    let mut probe = Probe::new(64);
    let report = SimSession::with_backend(ShgBackend::new(shg))
        .with_sink(&mut probe)
        .run(&mut BatchSource::random(8, 4, 3))
        .unwrap()
        .report;
    check("shg:8:2", &probe, &report);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batched driver (one engine, reset between seeds) reproduces
    /// fresh-engine runs exactly — LUTs, SoA pool recycling, and fault
    /// tables all survive the reset.
    #[test]
    fn run_batch_matches_fresh_runs(
        cfg in arb_ft_config(),
        channels in 1usize..=2,
        base in 0u64..200,
    ) {
        let plan = small_plan(&cfg, base);
        let seeds = [base, base + 1, base];
        let batch = SimSession::new(&cfg)
            .channels(channels)
            .with_faults(&plan)
            .run_batch(&seeds, |seed| BatchSource::random(cfg.n(), 2, seed))
            .unwrap();
        prop_assert_eq!(batch.len(), seeds.len());
        for (outcome, &seed) in batch.iter().zip(&seeds) {
            let fresh = SimSession::new(&cfg)
                .channels(channels)
                .with_faults(&plan)
                .run(&mut BatchSource::random(cfg.n(), 2, seed))
                .unwrap();
            prop_assert_eq!(&outcome.report, &fresh.report);
        }
        // Identical seeds at positions 0 and 2 must yield identical
        // reports (the reset leaves no residue).
        prop_assert_eq!(&batch[0].report, &batch[2].report);
    }

    /// Composing every observer at once — sink, monitor, attribution
    /// and profile — on a faulted bank still reports exactly what a bare
    /// session does, and the sink sees the same event stream as a
    /// sink-only session's.
    #[test]
    fn fully_composed_session_matches_bare_session(
        cfg in arb_ft_config(),
        channels in 1usize..=2,
        seed in 0u64..500,
    ) {
        let plan = small_plan(&cfg, seed);
        let session = || SimSession::new(&cfg).channels(channels).with_faults(&plan);
        let bare = session()
            .run(&mut BatchSource::random(cfg.n(), 2, seed))
            .unwrap()
            .report;
        let mut plain_sink = VecSink::new();
        session()
            .with_sink(&mut plain_sink)
            .run(&mut BatchSource::random(cfg.n(), 2, seed))
            .unwrap();
        let mut sink = VecSink::new();
        let outcome = session()
            .with_monitor(MonitorConfig::default())
            .with_attribution(AttributionConfig::default())
            .with_profile()
            .with_sink(&mut sink)
            .run(&mut BatchSource::random(cfg.n(), 2, seed))
            .unwrap();
        prop_assert_eq!(&bare, &outcome.report);
        prop_assert_eq!(&plain_sink.events, &sink.events);
        prop_assert!(outcome.monitor.unwrap().summary().injected > 0);
        prop_assert!(outcome.profile.is_some());
        let attribution = outcome.attribution.unwrap();
        prop_assert_eq!(attribution.mismatches, 0);
        prop_assert!(attribution.reconciled());
    }
}
