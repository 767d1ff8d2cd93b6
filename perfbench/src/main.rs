//! Benchmark of record for DelayAVF campaigns.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <savf_strike|ecc_sweep|adaptive_alu> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --reference --workload <name> --seed <n>
//! ```
//!
//! A run sets the workload up several times (the median is `setup_s`),
//! then repeats passes of its campaigns for `--seconds` (`wall_s` sums each
//! campaign's median wall), and finally re-runs one of the committed seeds
//! and compares every report digest with the exact scalar engine's.
//! `--trace 1` interleaves traced passes and reports the per-layer split.
//! `--reference` prints the scalar engine's digests in the format of
//! `reference_digests.txt`. See `README.md` for the workloads and metrics.

mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use delayavf::{InjectorStats, TelemetrySink, NULL_TELEMETRY};

use trace::{CampaignEvents, MemorySink, Tracer};
use workload::{Engines, Kind, Outcome, Prepared, SampleCounts};

/// Campaign worker threads: the core count of the machine the baseline
/// was measured on.
const THREADS: usize = 2;
/// Seed the workloads were developed on, and one held out from tuning.
/// Both have committed scalar-engine digests.
const DEV_SEED: u64 = 7;
const HELDOUT_SEED: u64 = 1009;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
const REFERENCE_DIGESTS: &str = include_str!("../reference_digests.txt");
/// Where traces and the cross-run determinism records go, relative to the
/// checkout root the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--reference" {
            reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    format!("unknown workload `{value}` (savf_strike, ecc_sweep, adaptive_alu)")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        reference,
    })
}

/// The committed scalar-engine digests of `kind` at `seed`, by campaign.
fn reference_digests(kind: Kind, seed: u64) -> Option<Vec<u64>> {
    let mut found = BTreeMap::new();
    for line in REFERENCE_DIGESTS.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [name, s, index, digest] = fields[..] {
            if name == kind.name() && s.parse() == Ok(seed) {
                let index: usize = index.parse().ok()?;
                found.insert(index, u64::from_str_radix(digest, 16).ok()?);
            }
        }
    }
    (!found.is_empty()).then(|| found.into_values().collect())
}

/// One pass over every campaign of a workload.
struct Pass {
    wall_s: f64,
    outcomes: Vec<Result<Outcome, String>>,
    campaign_wall_s: Vec<f64>,
    events: Vec<CampaignEvents>,
}

fn run_pass<S: TelemetrySink>(
    prepared: &Prepared,
    engines: Engines,
    threads: usize,
    sink: &S,
    take_events: impl Fn() -> CampaignEvents,
    tracer: &Tracer,
) -> Pass {
    let mut outcomes = Vec::new();
    let mut campaign_wall_s = Vec::new();
    let mut events = Vec::new();
    let start = Instant::now();
    tracer.span("pass", || {
        for i in 0..prepared.campaigns() {
            let t = Instant::now();
            outcomes.push(prepared.run(i, engines, threads, sink, tracer));
            campaign_wall_s.push(t.elapsed().as_secs_f64());
            events.push(take_events());
        }
    });
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        outcomes,
        campaign_wall_s,
        events,
    }
}

fn untraced_pass(prepared: &Prepared, engines: Engines, threads: usize) -> Pass {
    let off = Tracer::new(false, 0);
    run_pass(
        prepared,
        engines,
        threads,
        &NULL_TELEMETRY,
        CampaignEvents::default,
        &off,
    )
}

/// Failures and determinism checks accumulated over a run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    /// Counts the pass's campaigns, and fails each that errored or whose
    /// digest differs from `expected`. Per-campaign counters must equal
    /// `expected_stats` exactly when given.
    fn pass(
        &mut self,
        label: &str,
        pass: &Pass,
        expected: &[u64],
        expected_stats: Option<&[InjectorStats]>,
    ) {
        for (i, outcome) in pass.outcomes.iter().enumerate() {
            self.attempted += 1;
            match outcome {
                Err(e) => {
                    self.failed += 1;
                    self.problems
                        .push(format!("{label}: campaign {i} failed: {e}"));
                }
                Ok(o) => {
                    if expected.get(i) != Some(&o.digest) {
                        self.failed += 1;
                        self.problems.push(format!(
                            "{label}: campaign {i} digest {:016x} differs from reference {}",
                            o.digest,
                            expected
                                .get(i)
                                .map_or("(none)".to_owned(), |d| format!("{d:016x}"))
                        ));
                    }
                    if let Some(stats) = expected_stats {
                        if stats.get(i) != Some(&o.stats) {
                            self.problems
                                .push(format!("{label}: campaign {i} counters drifted"));
                        }
                    }
                }
            }
        }
    }
}

fn digests(pass: &Pass) -> Vec<u64> {
    pass.outcomes
        .iter()
        .map(|o| o.as_ref().map_or(0, |o| o.digest))
        .collect()
}

fn stats_of(pass: &Pass) -> Vec<InjectorStats> {
    pass.outcomes
        .iter()
        .map(|o| {
            o.as_ref()
                .map_or_else(|_| InjectorStats::default(), |o| o.stats)
        })
        .collect()
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A metric as printed: value, unit and the number of samples behind it.
struct Metric {
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Per-layer metrics of one traced pass.
fn pass_layers(pass: &Pass, threads: usize) -> BTreeMap<&'static str, (f64, &'static str)> {
    let mut m = BTreeMap::new();
    let mut total = InjectorStats::default();
    let (mut dynamic_hits, mut sampled, mut population) = (0u64, 0u64, 0u64);
    for o in pass.outcomes.iter().flatten() {
        total.merge(&o.stats);
        dynamic_hits += o.dynamic_hits;
        sampled += o.sites_sampled;
        population += o.sites_total;
    }
    let (mut busy_max, mut busy_min, mut busy_sum, mut wall) = (0.0, 0.0, 0.0, 0.0);
    let (mut settle, mut timing, mut replay) = (0u64, 0u64, 0u64);
    for (ev, w) in pass.events.iter().zip(&pass.campaign_wall_s) {
        let mut shard_busy = vec![0.0f64; threads];
        for (&shard, p) in &ev.shard_phases {
            settle += p.golden_settle_us;
            timing += p.timing_step_us;
            replay += p.replay_us;
            let busy = (p.golden_settle_us + p.timing_step_us + p.replay_us) as f64 / 1e6;
            if shard < threads {
                shard_busy[shard] += busy;
            }
        }
        busy_max += shard_busy.iter().copied().fold(0.0, f64::max);
        busy_min += shard_busy.iter().copied().fold(f64::INFINITY, f64::min);
        busy_sum += shard_busy.iter().sum::<f64>();
        wall += w;
    }
    let t = &total;
    for (name, count) in [
        ("injector.static_filtered", t.static_filtered),
        ("injector.toggle_filtered", t.toggle_filtered),
        ("injector.collapsed_edges", t.collapsed_edges),
        ("injector.class_representatives", t.class_representatives),
        ("injector.event_sims", t.event_sims),
        ("injector.dynamic_hits", dynamic_hits),
        ("injector.delta_events", t.delta_events),
        ("injector.delta_early_exits", t.delta_early_exits),
        ("injector.golden_waveform_builds", t.golden_waveform_builds),
        ("injector.batched_timing_replays", t.batched_timing_replays),
        ("injector.timing_lanes_occupied", t.timing_lanes_occupied),
        ("injector.replays", t.replays),
        ("injector.replay_cache_hits", t.replay_cache_hits),
        ("injector.replay_cycles", t.replay_cycles),
        ("injector.gates_evaluated", t.gates_evaluated),
        ("injector.full_replay_fallbacks", t.full_replay_fallbacks),
        ("injector.batched_replays", t.batched_replays),
        ("injector.lanes_occupied", t.lanes_occupied),
        (
            "injector.formally_discharged_ace",
            t.formally_discharged_ace,
        ),
        (
            "injector.formally_discharged_unace",
            t.formally_discharged_unace,
        ),
        ("sampling.strata_active", t.strata_active),
        ("sampling.strata_retired_early", t.strata_retired_early),
        ("sampling.adaptive_replays_saved", t.adaptive_replays_saved),
        ("sampling.sites_sampled", sampled),
        ("sampling.sites_total", population),
    ] {
        m.insert(name, (count as f64, "count"));
    }
    let r = |num: u64, den: u64| ratio(num as f64, den as f64);
    let capacity = threads as f64 * wall;
    for (name, value, unit) in [
        ("campaign.wall_s", wall, "s"),
        ("campaign.busy_s", busy_sum, "s"),
        ("campaign.shard_busy_max_s", busy_max, "s"),
        ("campaign.shard_busy_min_s", busy_min, "s"),
        ("campaign.idle_s", capacity - busy_sum, "s"),
        (
            "campaign.parallel_efficiency",
            ratio(busy_sum, capacity),
            "ratio",
        ),
        ("injector.golden_settle_s", settle as f64 / 1e6, "s"),
        ("injector.timing_step_s", timing as f64 / 1e6, "s"),
        ("injector.replay_s", replay as f64 / 1e6, "s"),
        (
            "injector.dynamic_hit_frac",
            r(dynamic_hits, t.event_sims),
            "ratio",
        ),
        (
            "injector.timing_lanes_per_batch",
            r(t.timing_lanes_occupied, t.batched_timing_replays),
            "lanes",
        ),
        (
            "injector.replay_hit_frac",
            r(t.replay_cache_hits, t.replays + t.replay_cache_hits),
            "ratio",
        ),
        (
            "injector.gates_per_replay_cycle",
            r(t.gates_evaluated, t.replay_cycles),
            "gates",
        ),
        (
            "injector.lanes_per_batch",
            r(t.lanes_occupied, t.batched_replays),
            "lanes",
        ),
        (
            "sampling.sites_sampled_frac",
            r(sampled, population),
            "ratio",
        ),
    ] {
        m.insert(name, (value, unit));
    }
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.reference {
        return reference(&args);
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Prints the exact scalar engine's digests for one workload and seed.
fn reference(args: &Args) -> ExitCode {
    let prepared = Prepared::setup(args.kind, args.seed, &Tracer::new(false, 0));
    let pass = untraced_pass(&prepared, Engines::Scalar, THREADS);
    let mut ok = true;
    for (i, outcome) in pass.outcomes.iter().enumerate() {
        match outcome {
            Ok(o) => println!("{} {} {i} {:016x}", args.kind.name(), args.seed, o.digest),
            Err(e) => {
                eprintln!("error: campaign {i}: {e}");
                ok = false;
            }
        }
    }
    eprintln!("scalar reference pass took {:.1} s", pass.wall_s);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// FNV-1a of this executable, naming the build for cross-run checks.
fn build_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("cannot read executable: {e}"))?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    }))
}

/// Compares this run's digests and counters with the record an earlier
/// run of the same build and seed left, or leaves one.
fn cross_run_check(kind: Kind, seed: u64, pass: &Pass, checks: &mut Checks) -> Result<(), String> {
    let mut record = format!("build {:016x}\n", build_id()?);
    for (d, s) in digests(pass).iter().zip(stats_of(pass)) {
        let _ = writeln!(record, "{d:016x} {s:?}");
    }
    let dir = Path::new(OUT_DIR).join("determinism");
    let path = dir.join(format!("{}-{seed}.txt", kind.name()));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.lines().next() == record.lines().next() => {
            if earlier != record {
                checks.problems.push(format!(
                    "digests or counters differ from an earlier run of this build ({})",
                    path.display()
                ));
            }
            Ok(())
        }
        _ => {
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let kind = args.kind;
    let run_id = u64::from(std::process::id());
    let tracer = Tracer::new(args.trace, run_id);
    let mut checks = Checks::default();

    // Set-up, several times; the last set-up is the one measured.
    let mut setup_s = Vec::new();
    let mut setup_layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let mark = tracer.mark();
        let t = Instant::now();
        let p = tracer.span("setup", || Prepared::setup(kind, args.seed, &tracer));
        setup_s.push(t.elapsed().as_secs_f64());
        setup_layers.push(tracer.self_times(mark));
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    let counts = prepared.sample_counts();

    // Measured passes. The reference is the committed scalar digest where
    // there is one, else the first pass: every later pass must repeat it.
    let committed = reference_digests(kind, args.seed);
    let sink = MemorySink::default();
    let mut walls = Vec::new();
    let mut campaign_walls: Vec<Vec<f64>> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced_layers = Vec::new();
    let mut first: Option<Pass> = None;
    let start = Instant::now();
    loop {
        let pass = untraced_pass(&prepared, Engines::Fast, THREADS);
        let expected = committed
            .clone()
            .unwrap_or_else(|| first.as_ref().map_or_else(|| digests(&pass), digests));
        let expected_stats = first.as_ref().map(stats_of);
        checks.pass("pass", &pass, &expected, expected_stats.as_deref());
        walls.push(pass.wall_s);
        campaign_walls.push(pass.campaign_wall_s.clone());
        if args.trace {
            let traced = run_pass(
                &prepared,
                Engines::Fast,
                THREADS,
                &sink,
                || sink.take(),
                &tracer,
            );
            checks.pass("traced pass", &traced, &expected, Some(&stats_of(&pass)));
            for (i, ev) in traced.events.iter().enumerate() {
                let returned = traced.outcomes[i]
                    .as_ref()
                    .map(|o| o.stats)
                    .unwrap_or_default();
                // The adaptive plan's counters are set once, after the shard
                // merge, and travel in no `stats_delta`.
                let streamed = InjectorStats {
                    strata_active: returned.strata_active,
                    strata_retired_early: returned.strata_retired_early,
                    adaptive_replays_saved: returned.adaptive_replays_saved,
                    ..ev.stats_deltas
                };
                if ev.stats_delta_events > 0 && streamed != returned {
                    checks.problems.push(format!(
                        "traced pass: campaign {i} telemetry counters differ from the returned ones"
                    ));
                }
                if (ev.campaign_starts, ev.campaign_ends) != (1, 1) {
                    checks.problems.push(format!(
                        "traced pass: campaign {i} emitted {} campaign_start and {} campaign_end events",
                        ev.campaign_starts, ev.campaign_ends
                    ));
                }
            }
            traced_walls.push(traced.wall_s);
            traced_layers.push(pass_layers(&traced, THREADS));
        }
        if first.is_none() {
            first = Some(pass);
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let first = first.expect("at least one pass");
    let peak_rss = peak_rss_mb();

    if args.trace {
        // The first campaign at one thread must give the same report and
        // counts; one campaign keeps the single-threaded check short.
        let single = Pass {
            wall_s: 0.0,
            outcomes: vec![prepared.run(0, Engines::Fast, 1, &NULL_TELEMETRY, &tracer)],
            campaign_wall_s: Vec::new(),
            events: Vec::new(),
        };
        checks.pass(
            "threads=1 campaign",
            &single,
            &digests(&first)[..1],
            Some(&stats_of(&first)[..1]),
        );
    }
    cross_run_check(kind, args.seed, &first, &mut checks)?;
    drop(prepared);

    // A committed seed, re-run on the fast engines, must match the scalar
    // engine's digests. Runs alternate between the two committed seeds.
    if committed.is_none() {
        let probe = [DEV_SEED, HELDOUT_SEED][(args.seed % 2) as usize];
        match reference_digests(kind, probe) {
            Some(expected) => {
                let p = Prepared::setup(kind, probe, &Tracer::new(false, 0));
                let pass = untraced_pass(&p, Engines::Fast, THREADS);
                checks.pass(&format!("seed {probe} probe"), &pass, &expected, None);
            }
            None => checks
                .problems
                .push(format!("no committed reference digest for seed {probe}")),
        }
    }
    if committed.is_none() && [DEV_SEED, HELDOUT_SEED].contains(&args.seed) {
        checks.problems.push(format!(
            "no committed reference digest for seed {}",
            args.seed
        ));
    }

    // Workload shape: each workload must still exercise its layer.
    let total = stats_of(&first)
        .iter()
        .fold(InjectorStats::default(), |mut acc, s| {
            acc.merge(s);
            acc
        });
    match kind {
        Kind::SavfStrike if total.event_sims != 0 => checks
            .problems
            .push(format!("shape: savf_strike ran {} event sims, expected 0", total.event_sims)),
        Kind::AdaptiveAlu if total.strata_active == 0 || total.adaptive_replays_saved == 0 => {
            checks.problems.push(format!(
                "shape: adaptive_alu has strata_active={} adaptive_replays_saved={}, expected both > 0",
                total.strata_active, total.adaptive_replays_saved
            ))
        }
        _ => {}
    }

    let mut metrics: BTreeMap<&'static str, Metric> = BTreeMap::new();
    if args.trace {
        let mut layers: BTreeMap<&'static str, (Vec<f64>, &'static str)> = BTreeMap::new();
        for pass in &traced_layers {
            for (&name, &(value, unit)) in pass {
                layers
                    .entry(name)
                    .or_insert((Vec::new(), unit))
                    .0
                    .push(value);
            }
        }
        for (name, (values, unit)) in layers {
            metrics.insert(
                name,
                Metric {
                    value: median(&values),
                    unit,
                    samples: values.len(),
                },
            );
        }
        for (metric, span) in [
            ("rvcore.build_s", "rvcore.build"),
            ("netlist.topology_s", "netlist.topology"),
            ("timing.analyze_s", "timing.analyze"),
            ("collapse.plan_build_s", "collapse.plan_build"),
            ("workloads.assemble_s", "workloads.assemble"),
            ("golden.record_s", "golden.record"),
        ] {
            let values: Vec<f64> = setup_layers
                .iter()
                .map(|l| l.get(span).copied().unwrap_or(0.0))
                .collect();
            metrics.insert(
                metric,
                Metric {
                    value: median(&values),
                    unit: "s",
                    samples: values.len(),
                },
            );
        }
        metrics.insert(
            "golden.trace_cycles",
            Metric {
                value: counts.trace_cycles as f64,
                unit: "count",
                samples: 1,
            },
        );
        let (traced, untraced) = (median(&traced_walls), median(&walls));
        for (name, value, unit) in [
            ("trace.traced_wall_s", traced, "s"),
            ("trace.untraced_wall_s", untraced, "s"),
            (
                "trace.overhead_frac",
                ratio(traced - untraced, untraced),
                "ratio",
            ),
        ] {
            metrics.insert(
                name,
                Metric {
                    value,
                    unit,
                    samples: walls.len().min(traced_walls.len()),
                },
            );
        }
        if kind == Kind::EccSweep {
            let (t, r) = (
                metrics["injector.timing_step_s"].value,
                metrics["injector.replay_s"].value,
            );
            if t <= r {
                checks.problems.push(format!(
                    "shape: ecc_sweep timing step {t:.3} s is not above replay {r:.3} s"
                ));
            }
        }
        let path = Path::new(OUT_DIR).join(format!("spans-{}-{}.jsonl", kind.name(), args.seed));
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        // A pass's wall, estimated campaign by campaign: the host's bursts
        // of slowness are shorter than a pass, so a per-campaign median
        // discards more of them than a median of whole passes.
        let wall: f64 = (0..counts.campaigns)
            .map(|c| median(&campaign_walls.iter().map(|p| p[c]).collect::<Vec<_>>()))
            .sum();
        metrics.insert(
            "wall_s",
            Metric {
                value: wall,
                unit: "s",
                samples: walls.len(),
            },
        );
        metrics.insert(
            "setup_s",
            Metric {
                value: median(&setup_s),
                unit: "s",
                samples: setup_s.len(),
            },
        );
        metrics.insert(
            "peak_rss_mb",
            Metric {
                value: peak_rss,
                unit: "MiB",
                samples: 1,
            },
        );
    }

    let correct = checks.failed == 0 && checks.problems.is_empty();
    print_report(args, &counts, &metrics, &walls, &checks, correct);
    Ok(correct)
}

fn print_report(
    args: &Args,
    counts: &SampleCounts,
    metrics: &BTreeMap<&'static str, Metric>,
    pass_walls: &[f64],
    checks: &Checks,
    correct: bool,
) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "env {{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"nproc\":{nproc},\"threads\":{THREADS},\
         \"commit\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\",\"campaigns\":{},\"goldens\":{},\
         \"sampled_cycles\":{},\"trace_cycles\":{},\"dffs\":{},\"edges\":{}}}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        counts.campaigns,
        counts.goldens,
        counts.sampled_cycles,
        counts.trace_cycles,
        counts.dffs,
        counts.edges,
    );
    for (name, m) in metrics {
        println!(
            "metric {name:<36} {:>14.6} {:<6} n={}",
            m.value, m.unit, m.samples
        );
    }
    let walls: Vec<String> = pass_walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("passes {}", walls.join(" "));
    println!(
        "metric {:<36} {:>14.6} {:<6} n={}",
        "failed_frac",
        ratio(checks.failed as f64, checks.attempted as f64),
        "ratio",
        checks.attempted
    );
    for p in &checks.problems {
        println!("problem {p}");
    }
    let mut json = String::new();
    for (name, m) in metrics {
        if !json.is_empty() {
            json.push(',');
        }
        // JSON has no NaN; a metric that could not be measured is null.
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_owned()
        };
        let _ = write!(
            json,
            "\"{name}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.unit
        );
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        checks.attempted, checks.failed
    );
}
