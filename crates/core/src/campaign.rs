//! Fault-injection campaigns: DelayAVF sweeps and particle-strike sAVF.
//!
//! # One driver
//!
//! All five campaigns — the DelayAVF sweep, the per-record sweep, sAVF,
//! per-bit sAVF and spatial double strikes — run through one generic
//! driver (`run_campaign`). A campaign supplies only its checkpoint kinds,
//! its sites per cycle (one for the cycle-site campaigns, one per edge for
//! the sweep), its unit body and a fold that merges one unit into the
//! output and hands its hits and trials to the adaptive plan. With
//! [`ReplayOptions::ci_target`] unset (the default) a campaign is
//! **uniform**: a single round over every valid cycle, with no strata
//! built and unit keys equal to the cycle. With it set, the driver
//! stratifies the sites, runs rounds until the plan retires every stratum,
//! and a finish step fills in the adaptive columns and counters.
//!
//! # Work-stealing parallel engine
//!
//! Every injection is independent given the golden trace, so every
//! campaign cuts its trace-cycle axis into whole-cycle **work units** and
//! runs them on [`std::thread::scope`] workers (`run_units`). Each worker
//! builds one private [`Injector`] — its fan-in/replay caches and cycle
//! reconstruction are per-run mutable state — and then claims unit indices
//! from a shared atomic cursor, in cycle order, until none are left. Early
//! cycles replay longest (their faults have the most program left to
//! reach), so ascending order is already longest-first and the workers
//! finish close together. Workers share the circuit, topology, timing
//! model and golden run read-only (hence the `Send + Sync` supertrait on
//! [`Environment`]).
//!
//! **Determinism:** results are bit-for-bit identical to serial for any
//! thread count and any unit-to-worker assignment. Every unit returns its
//! own contribution — result rows, counter deltas, records, visibility
//! flags — into a slot indexed by unit, and the driver merges the slots in
//! unit order: counters are integers merged by addition, records are
//! concatenated in cycle order. Units are whole cycles and every
//! cache-shareable replay is keyed to one latch boundary, so which worker
//! ran a unit, and what it ran before, never changes that unit's
//! [`InjectorStats`] delta — not even the cache-hit counters.
//!
//! # Latch-boundary conventions
//!
//! The two fault models classify at different boundaries **by design**:
//!
//! * A small delay fault in cycle `c` corrupts the values *latched at the
//!   end* of `c`, so [`delay_avf_campaign`] (via [`Injector::inject`])
//!   classifies the error group at boundary `c + 1`.
//! * A particle strike at cycle `c` corrupts *already-stored* state, so the
//!   sAVF campaigns ([`savf_campaign`], [`savf_per_bit_campaign`],
//!   [`spatial_double_strike_campaign`]) classify at boundary `c` itself.
//!
//! Both conventions draw `c` from [`valid_cycles`], which keeps every
//! boundary inside the golden trace.
//!
//! # Lane batching
//!
//! Within a unit, every campaign groups the replays of its latch boundary
//! into bit-parallel batches ([`Injector::prefill_failures`], up to
//! [`ReplayOptions::lanes`] scenarios per pass over the netlist) before
//! running its unchanged scalar loop against the warmed cache — so tally
//! and record order are exactly the sequential engine's, and `lanes = 1`
//! (which turns prefilling into a no-op) reproduces its reports
//! byte-identically. A unit is one boundary, so its batches never straddle
//! workers and the batch counters in [`InjectorStats`] merge
//! thread-invariantly. The per-bit campaign runs cycle units too: one
//! all-bit prefill per boundary, with the per-cycle flags transposed into
//! per-bit tallies at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use delayavf_netlist::{Circuit, DffId, EdgeId, Topology};
use delayavf_sim::{Environment, MAX_LANES, MAX_TIMING_LANES};
use delayavf_timing::{Picos, TimingModel};

use crate::checkpoint::{CheckpointSpec, CheckpointStore, Fingerprint, Tokens};
use crate::golden::GoldenRun;
use crate::injector::{FailureClass, InjectionOutcome, Injector, InjectorStats};
use crate::razor::InjectionRecord;
use crate::result::{AdaptiveEstimate, DelayAvfResult, OraceStats, SavfResult};
use crate::sampling::{bucket_axis, validate_ci_target, validate_strata, AdaptivePlan};
use crate::telemetry::{NullTelemetry, PhaseTotals, TelemetryEvent, TelemetrySink, NULL_TELEMETRY};

/// Replay-engine options shared by every campaign entry point (the
/// DelayAVF sweeps embed them in [`CampaignConfig::replay`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplayOptions {
    /// Extra cycles past the golden program length before a non-halting
    /// faulty run is declared a DUE.
    pub due_slack: u64,
    /// Worker threads for the campaign engine. `0` (the default) resolves
    /// to [`std::thread::available_parallelism`]. Results are identical
    /// for every value; only wall-clock time changes.
    pub threads: usize,
    /// Use the incremental divergence-cone replay engine (the default).
    /// Results are bit-for-bit identical either way; `false` runs the
    /// exact full-replay baseline (the `--no-incremental` escape hatch).
    pub incremental: bool,
    /// Use the incremental timing-aware engine — shared per-cycle
    /// golden-waveform cache plus fault-cone delta event simulation — for
    /// step 1 (the default). Results are bit-for-bit identical either way;
    /// `false` runs the exact full event-simulation baseline (the
    /// `--no-delta-timing` escape hatch).
    pub delta_timing: bool,
    /// Lane width for bit-parallel batch replays (default
    /// [`delayavf_sim::MAX_LANES`]). Results are identical for every
    /// width; `1` disables batching and reproduces the sequential
    /// engine's reports byte-identically (the `--lanes 1` escape hatch).
    pub lanes: usize,
    /// Lane width for lane-packed timing-aware batch replays (default
    /// [`delayavf_sim::MAX_TIMING_LANES`]; widths above 64 take the
    /// 256-bit wide-word path and widths above 256 the 512-bit one).
    /// Results are identical for every width; `1` disables timing batching
    /// and reproduces the scalar [`delayavf_sim::DeltaEventSim`] engine's
    /// reports byte-identically (the `--timing-lanes 1` escape hatch).
    pub timing_lanes: usize,
    /// Use the pre-simulation collapsing layer — injection-site
    /// equivalence classes, the quiet-source certificate and the
    /// semi-formal masking discharge (the default). Results are
    /// bit-for-bit identical either way; `false` runs the exact per-site
    /// baseline (the `--no-collapse` escape hatch).
    pub collapse: bool,
    /// Target Wilson half-width for adaptive stratified sampling. `None`
    /// (the default) runs the legacy uniform path byte-identically;
    /// `Some(t)` stratifies the injection sites, allocates replay budget
    /// Neyman-style and retires each stratum once its interval half-width
    /// is at most `t`. Must pass
    /// [`crate::sampling::validate_ci_target`].
    pub ci_target: Option<f64>,
    /// Buckets per stratification axis for adaptive sampling (strata count
    /// is the product of the two axes, so `strata²`). Ignored unless
    /// `ci_target` is set. Must pass [`crate::sampling::validate_strata`].
    pub strata: usize,
    /// Seed of the adaptive plan's per-stratum visit-order shuffle.
    /// Ignored unless `ci_target` is set.
    pub sample_seed: u64,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            due_slack: 2_000,
            threads: 0,
            incremental: true,
            delta_timing: true,
            lanes: MAX_LANES,
            timing_lanes: MAX_TIMING_LANES,
            collapse: true,
            ci_target: None,
            strata: crate::sampling::DEFAULT_STRATA,
            sample_seed: 7,
        }
    }
}

impl ReplayOptions {
    /// Options with the given DUE slack and thread count (incremental
    /// replay on, as everywhere by default).
    pub fn new(due_slack: u64, threads: usize) -> Self {
        ReplayOptions {
            due_slack,
            threads,
            ..ReplayOptions::default()
        }
    }
}

/// Configuration of a DelayAVF campaign: the sweep parameters plus the
/// engine knobs every campaign shares.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Delay durations to sweep, as fractions of the clock period (the
    /// paper sweeps 10%–90%).
    pub delay_fractions: Vec<f64>,
    /// Also evaluate the ORACE approximation per injection (needed for
    /// Table III; costs one replay per distinct (cycle, bit)).
    pub compute_orace: bool,
    /// Replay-engine knobs (DUE slack, threads, lanes, adaptive sampling).
    pub replay: ReplayOptions,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            delay_fractions: (1..=9).map(|k| k as f64 / 10.0).collect(),
            compute_orace: false,
            replay: ReplayOptions::default(),
        }
    }
}

impl CampaignConfig {
    /// A configuration sweeping a single delay fraction.
    pub fn single_delay(fraction: f64) -> Self {
        CampaignConfig {
            delay_fractions: vec![fraction],
            ..CampaignConfig::default()
        }
    }
}

/// Declares each [`ReplayOptions`] builder once, for both
/// [`ReplayOptions`] and the [`CampaignConfig`] that embeds it.
macro_rules! knob_builders {
    ($($(#[$doc:meta])* $name:ident => $field:ident: $ty:ty;)*) => {
        impl ReplayOptions {
            $($(#[$doc])* pub fn $name(mut self, value: $ty) -> Self {
                self.$field = value;
                self
            })*
        }

        impl CampaignConfig {
            $($(#[$doc])* pub fn $name(mut self, value: $ty) -> Self {
                self.replay.$field = value;
                self
            })*
        }
    };
}

knob_builders! {
    /// Builder-style override of the worker-thread count (`0` = one per
    /// available core).
    with_threads => threads: usize;
    /// Builder-style toggle of the incremental replay engine.
    with_incremental => incremental: bool;
    /// Builder-style toggle of the incremental timing-aware engine.
    with_delta_timing => delta_timing: bool;
    /// Builder-style override of the batch lane width (`1` = scalar
    /// baseline, `0` = maximum width).
    with_lanes => lanes: usize;
    /// Builder-style override of the timing batch lane width (`1` =
    /// scalar baseline, `0` = maximum width).
    with_timing_lanes => timing_lanes: usize;
    /// Builder-style toggle of the pre-simulation collapsing layer.
    with_collapse => collapse: bool;
    /// Builder-style override of the adaptive-sampling CI target
    /// (`None` = uniform legacy path).
    with_ci_target => ci_target: Option<f64>;
    /// Builder-style override of the per-axis stratification bucket count.
    with_strata => strata: usize;
    /// Builder-style override of the adaptive visit-order seed.
    with_sample_seed => sample_seed: u64;
}

/// The sampled cycles on which injection is well-defined: cycle 0 has no
/// preceding settled state to simulate from, and the final trace cycle has
/// no successor boundary to classify at. Every campaign filters through
/// this one helper so the conventions cannot drift apart.
pub fn valid_cycles<E: Environment + Clone>(golden: &GoldenRun<E>) -> Vec<u64> {
    golden
        .sampled_cycles
        .iter()
        .copied()
        .filter(|&c| c >= 1 && c < golden.trace.num_cycles())
        .collect()
}

/// Resolves a requested thread count: `0` means one per available core,
/// and no campaign spawns more workers than it has work units.
fn resolve_threads(requested: usize, items: usize) -> usize {
    let t = if requested == 0 {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    t.clamp(1, items.max(1))
}

/// Runs `unit` over `items` on exactly `threads` workers and returns the
/// results in item order.
///
/// Each worker builds its state once with `init(worker)`, then claims unit
/// indices from a shared atomic cursor in item order, and hands its state
/// to `finish` when no unit is left. Results are slotted by unit index, so
/// the output does not depend on which worker ran what. A failing unit
/// stops every worker from claiming more; indices are claimed in order, so
/// every unit below the failure has run and the error returned is the
/// lowest-index one.
fn run_units<T, W, U>(
    threads: usize,
    items: &[T],
    init: impl Fn(usize) -> W + Sync,
    unit: impl Fn(&mut W, &T) -> Result<U, String> + Sync,
    finish: impl Fn(W) + Sync,
) -> Result<Vec<U>, String>
where
    T: Sync,
    U: Send,
{
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let work = |worker: usize| {
        let mut state = init(worker);
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            let result = unit(&mut state, item);
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            done.push((i, result));
        }
        finish(state);
        done
    };
    let per_worker: Vec<Vec<(usize, Result<U, String>)>> = if threads <= 1 {
        vec![work(0)]
    } else {
        thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = (0..threads)
                .map(|worker| scope.spawn(move || work(worker)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked"))
                .collect()
        })
    };
    let mut slots: Vec<Option<Result<U, String>>> = items.iter().map(|_| None).collect();
    for (i, result) in per_worker.into_iter().flatten() {
        slots[i] = Some(result);
    }
    // Collecting stops at the first `Err`, before any unclaimed slot.
    slots
        .into_iter()
        .map(|slot| slot.expect("every unit below the first failure ran"))
        .collect()
}

/// Observability context threaded through the `*_observed` campaign entry
/// points: a telemetry sink plus an optional checkpoint spec. The plain
/// entry points are thin wrappers over [`RunContext::disabled`], which
/// monomorphizes every observability branch away.
#[derive(Clone, Debug)]
pub struct RunContext<'t, S: TelemetrySink = NullTelemetry> {
    /// Where structured events go. Use [`crate::NULL_TELEMETRY`] (via
    /// [`RunContext::disabled`]) for a zero-cost disabled stream.
    pub telemetry: &'t S,
    /// Periodic crash-safe checkpointing, if any.
    pub checkpoint: Option<CheckpointSpec>,
}

impl RunContext<'static, NullTelemetry> {
    /// No telemetry, no checkpointing: campaigns run exactly the
    /// pre-observability code paths.
    pub fn disabled() -> Self {
        RunContext {
            telemetry: &NULL_TELEMETRY,
            checkpoint: None,
        }
    }
}

impl Default for RunContext<'static, NullTelemetry> {
    fn default() -> Self {
        RunContext::disabled()
    }
}

impl<'t, S: TelemetrySink> RunContext<'t, S> {
    /// A context emitting to `telemetry`, optionally checkpointing.
    pub fn new(telemetry: &'t S, checkpoint: Option<CheckpointSpec>) -> Self {
        RunContext {
            telemetry,
            checkpoint,
        }
    }
}

/// Digest of everything that determines a campaign's *results*: the
/// campaign kind, circuit size, clock period, the golden trace content at
/// every unit cycle, the injected item list and the sweep parameters. Two
/// campaigns with equal fingerprints produce identical reports, so resumed
/// units can be trusted; anything else is a `checkpoint mismatch`.
fn campaign_fingerprint<E: Environment + Clone>(
    kind: &str,
    circuit: &Circuit,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    cycles: &[u64],
    c: &Campaign<'_>,
    due_slack: u64,
) -> u64 {
    let mut f = Fingerprint::new();
    f.write_bytes(kind.as_bytes());
    f.write_usize(circuit.num_dffs());
    f.write_u64(timing.clock_period());
    let trace = &golden.trace;
    f.write_u64(trace.num_cycles());
    f.write_bool(trace.halted());
    f.write_bytes(trace.program_output());
    f.write_usize(cycles.len());
    for &cy in cycles {
        f.write_u64(cy);
        for &word in trace.state_at(cy) {
            f.write_u64(word);
        }
    }
    f.write_usize(c.items.len());
    for &i in &c.items {
        f.write_usize(i);
    }
    f.write_usize(c.fractions.len());
    for &fr in c.fractions {
        f.write_f64(fr);
    }
    f.write_u64(due_slack);
    f.write_bool(c.orace);
    f.finish()
}

/// Digest of the engine knobs that shape the *counters* without changing
/// results: `lanes`, `timing_lanes`, `incremental`, `delta_timing` and
/// `collapse` all leave reports byte-identical but move work between counters, so a
/// checkpoint written under one knob set cannot be merged under another
/// without breaking the stats-identity guarantee. `threads` is
/// deliberately absent — every counter is thread-count invariant, which is
/// exactly what lets an interrupted 8-thread campaign resume on 2 threads.
///
/// The adaptive sampling policy (`ci_target`, `strata`, `sample_seed`)
/// hashes in only when adaptive sampling is **on**: the policy then
/// decides *which sites were simulated*, so resuming across a policy
/// drift must be rejected. With adaptive sampling off the trio is inert
/// and deliberately excluded — changing an unused `strata` default must
/// not invalidate a uniform run's checkpoint.
fn knob_hash(opts: &ReplayOptions) -> u64 {
    let mut f = Fingerprint::new();
    f.write_usize(opts.lanes);
    f.write_usize(opts.timing_lanes);
    f.write_bool(opts.incremental);
    f.write_bool(opts.delta_timing);
    f.write_bool(opts.collapse);
    match opts.ci_target {
        None => f.write_bool(false),
        Some(target) => {
            f.write_bool(true);
            f.write_f64(target);
            f.write_usize(opts.strata);
            f.write_u64(opts.sample_seed);
        }
    }
    f.finish()
}

/// One observed campaign run: the read-only inputs every worker shares,
/// the engine knobs, the valid cycles, and the telemetry and checkpoint
/// side opened under the campaign's `kind`.
struct Driver<'a, E: Environment + Clone, S: TelemetrySink> {
    kind: &'static str,
    circuit: &'a Circuit,
    topo: &'a Topology,
    timing: &'a TimingModel,
    golden: &'a GoldenRun<E>,
    opts: ReplayOptions,
    telemetry: &'a S,
    cycles: Vec<u64>,
    store: Option<Mutex<CheckpointStore>>,
    /// Snapshot of the resumed units, readable without locking the store.
    resumed: BTreeMap<u64, String>,
}

/// A worker's private state, built once per worker of a [`Driver::run`].
struct Worker<'w, E: Environment + Clone, S: TelemetrySink> {
    injector: Injector<'w, E>,
    obs: ShardObserver<'w, S>,
}

impl<'a, E: Environment + Clone, S: TelemetrySink> Driver<'a, E, S> {
    /// Opens (or resumes) the checkpoint of campaign `c`, under its
    /// adaptive kind when `opts.ci_target` is set.
    fn open(
        circuit: &'a Circuit,
        topo: &'a Topology,
        timing: &'a TimingModel,
        golden: &'a GoldenRun<E>,
        opts: ReplayOptions,
        ctx: &RunContext<'a, S>,
        c: &Campaign<'_>,
    ) -> Result<Self, String> {
        let kind = c.kinds[usize::from(opts.ci_target.is_some())];
        let cycles = valid_cycles(golden);
        let (store, resumed) = match &ctx.checkpoint {
            None => (None, BTreeMap::new()),
            Some(spec) => {
                let fingerprint =
                    campaign_fingerprint(kind, circuit, timing, golden, &cycles, c, opts.due_slack);
                let store = CheckpointStore::open(spec, kind, fingerprint, knob_hash(&opts))?;
                let resumed = store.resumed_units().clone();
                (Some(Mutex::new(store)), resumed)
            }
        };
        Ok(Driver {
            kind,
            circuit,
            topo,
            timing,
            golden,
            opts,
            telemetry: ctx.telemetry,
            cycles,
            store,
            resumed,
        })
    }

    /// A worker's private injector, with the campaign's knobs applied.
    fn injector(&self) -> Injector<'a, E> {
        let o = &self.opts;
        let mut injector = Injector::new(
            self.circuit,
            self.topo,
            self.timing,
            self.golden,
            o.due_slack,
        );
        injector.set_incremental(o.incremental);
        injector.set_delta_timing(o.delta_timing);
        injector.set_lanes(o.lanes);
        injector.set_timing_lanes(o.timing_lanes);
        injector.set_collapse(o.collapse);
        injector
    }

    /// Whether completed units must be serialized for the checkpoint.
    fn checkpointing(&self) -> bool {
        self.store.is_some()
    }

    /// The stored payload of unit `key`, if it was resumed.
    fn resumed(&self, key: u64) -> Option<&str> {
        self.resumed.get(&key).map(String::as_str)
    }

    /// Runs `unit` over `items` on [`run_units`] workers, each with its own
    /// injector and observer, and returns the results in item order.
    fn run<T: Sync, U: Send>(
        &self,
        items: &[T],
        unit: impl Fn(&mut Worker<'_, E, S>, &T) -> Result<U, String> + Sync,
    ) -> Result<Vec<U>, String> {
        let progress = Progress {
            done: AtomicUsize::new(0),
            total: items.len(),
            started: S::ENABLED.then(Instant::now),
        };
        let store = self.store.as_ref();
        run_units(
            resolve_threads(self.opts.threads, items.len()),
            items,
            |worker| Worker {
                injector: self.injector(),
                obs: ShardObserver::new(self.telemetry, store, &progress, worker),
            },
            unit,
            |w| w.obs.finish(),
        )
    }

    /// Emits a `campaign_start` for `units` units, runs `body`, performs
    /// the final checkpoint flush and emits the matching `campaign_end`.
    fn observe<R>(
        &self,
        units: usize,
        body: impl FnOnce() -> Result<R, String>,
    ) -> Result<R, String> {
        let t0 = S::ENABLED.then(Instant::now);
        if S::ENABLED {
            self.telemetry.emit(&TelemetryEvent::CampaignStart {
                campaign: self.kind,
                units,
                threads: resolve_threads(self.opts.threads, self.cycles.len()),
                resumed_units: self.resumed.len(),
            });
        }
        let result = body()?;
        if let Some(store) = &self.store {
            store
                .lock()
                .map_err(|_| "checkpoint store poisoned".to_string())?
                .flush()?;
        }
        if S::ENABLED {
            let wall_ms = t0.map_or(0, |t| t.elapsed().as_millis() as u64);
            self.telemetry.emit(&TelemetryEvent::CampaignEnd {
                campaign: self.kind,
                units,
                wall_ms,
            });
        }
        Ok(result)
    }
}

/// Minimum spacing of a worker's intermediate heartbeats (its first unit
/// and the campaign's last unit always beat).
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);

/// Progress shared by the workers of one [`Driver::run`] (the whole
/// campaign, or one adaptive round): units done, units in total, and the
/// clock the heartbeat rates are measured on. Only touched when the sink
/// is enabled.
struct Progress {
    done: AtomicUsize,
    total: usize,
    started: Option<Instant>,
}

/// Per-worker observability state: emits heartbeats/stats deltas, records
/// completed units into the shared checkpoint store, and accumulates the
/// worker's phase timers. All clock reads are gated on `S::ENABLED`, so a
/// disabled sink never touches a clock.
struct ShardObserver<'a, S: TelemetrySink> {
    telemetry: &'a S,
    store: Option<&'a Mutex<CheckpointStore>>,
    progress: &'a Progress,
    shard: usize,
    last_beat: Option<Instant>,
    /// Counter deltas not yet emitted as a `stats_delta`.
    pending_stats: Option<InjectorStats>,
    phases: PhaseTotals,
}

impl<'a, S: TelemetrySink> ShardObserver<'a, S> {
    fn new(
        telemetry: &'a S,
        store: Option<&'a Mutex<CheckpointStore>>,
        progress: &'a Progress,
        shard: usize,
    ) -> Self {
        ShardObserver {
            telemetry,
            store,
            progress,
            shard,
            last_beat: None,
            pending_stats: None,
            phases: PhaseTotals::default(),
        }
    }

    /// Marks one unit complete: persists `payload` (fresh units only;
    /// resumed units are already in the store) and emits heartbeat +
    /// stats-delta events when due.
    fn unit_done(
        &mut self,
        key: u64,
        payload: Option<String>,
        stats_delta: Option<&InjectorStats>,
    ) -> Result<(), String> {
        if let (Some(store), Some(payload)) = (self.store, payload) {
            let mut store = store
                .lock()
                .map_err(|_| "checkpoint store poisoned".to_string())?;
            let flushed = store.record(key, payload)?;
            if S::ENABLED && flushed {
                let completed_units = store.completed();
                drop(store);
                self.telemetry
                    .emit(&TelemetryEvent::CheckpointFlush { completed_units });
            }
        }
        if S::ENABLED {
            if let Some(delta) = stats_delta {
                self.pending_stats.get_or_insert_default().merge(delta);
            }
            let done = self.progress.done.fetch_add(1, Ordering::Relaxed) + 1;
            let total = self.progress.total;
            let now = Instant::now();
            let due = done == total
                || self
                    .last_beat
                    .is_none_or(|t| now.duration_since(t) >= HEARTBEAT_INTERVAL);
            if due {
                self.last_beat = Some(now);
                let elapsed = self
                    .progress
                    .started
                    .map_or(0.0, |s| now.duration_since(s).as_secs_f64());
                let (units_per_sec, eta_s) = heartbeat_rates(done, total, elapsed);
                self.telemetry.emit(&TelemetryEvent::ShardHeartbeat {
                    shard: self.shard,
                    done,
                    total,
                    units_per_sec,
                    eta_s,
                });
                self.flush_stats();
            }
        }
        Ok(())
    }

    fn flush_stats(&mut self) {
        if let Some(stats) = self.pending_stats.take() {
            self.telemetry.emit(&TelemetryEvent::StatsDelta {
                shard: self.shard,
                stats,
            });
        }
    }

    /// Flushes the pending stats delta and emits the worker's phase-timer
    /// totals (once, when the worker runs out of units).
    fn finish(mut self) {
        if S::ENABLED {
            self.flush_stats();
            self.telemetry.emit(&TelemetryEvent::PhaseTimers {
                shard: self.shard,
                phases: self.phases,
            });
        }
    }
}

/// Heartbeat rate math: `(units_per_sec, eta_s)` from the units completed,
/// the campaign total and the elapsed seconds. Degenerate inputs — zero
/// elapsed time on an instantaneous first unit, or zero completed units —
/// yield `0.0` rather than NaN/∞: the JSONL layer would render non-finite
/// numbers as `0.000` anyway, but never producing them keeps `eta_s`
/// honest at the source. The remaining-unit count saturates so a `done`
/// overshoot can never panic the telemetry path.
fn heartbeat_rates(done: usize, total: usize, elapsed: f64) -> (f64, f64) {
    let units_per_sec = if elapsed > 0.0 {
        done as f64 / elapsed
    } else {
        0.0
    };
    let eta_s = if units_per_sec > 0.0 {
        total.saturating_sub(done) as f64 / units_per_sec
    } else {
        0.0
    };
    (units_per_sec, eta_s)
}

/// Runs `f`, adding its wall-clock microseconds to `acc` when `enabled`.
/// The disabled branch is the bare call — no clock read at all.
fn timed<T>(enabled: bool, acc: &mut u64, f: impl FnOnce() -> T) -> T {
    if enabled {
        let t0 = Instant::now();
        let r = f();
        *acc += t0.elapsed().as_micros() as u64;
        r
    } else {
        f()
    }
}

// ---------------------------------------------------------------------------
// Checkpoint unit-payload codecs. One line per completed unit; whitespace
// tokens only (see the checkpoint module docs for the file format).
// ---------------------------------------------------------------------------

fn encode_class(class: FailureClass) -> char {
    match class {
        FailureClass::Masked => 'M',
        FailureClass::Sdc => 'S',
        FailureClass::Due => 'D',
    }
}

fn decode_class(tok: char) -> Result<FailureClass, String> {
    match tok {
        'M' => Ok(FailureClass::Masked),
        'S' => Ok(FailureClass::Sdc),
        'D' => Ok(FailureClass::Due),
        other => Err(format!(
            "checkpoint parse error: bad failure class `{other}`"
        )),
    }
}

/// Decodes a whole-token failure class: exactly one class character, so
/// `SX` or an empty token is an error rather than a silent `S`.
fn decode_class_token(tok: &str) -> Result<FailureClass, String> {
    let mut chars = tok.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) => decode_class(c),
        _ => Err(format!("checkpoint parse error: bad failure class `{tok}`")),
    }
}

fn encode_stats(out: &mut String, s: &InjectorStats) {
    out.push_str(" stats");
    for value in s.values() {
        let _ = write!(out, " {value}");
    }
}

fn decode_stats(t: &mut Tokens<'_>) -> Result<InjectorStats, String> {
    t.expect("stats")?;
    InjectorStats::try_from_fn(|name| t.next_u64(name))
}

fn encode_failures(out: &mut String, entries: &[(Vec<DffId>, FailureClass)]) {
    let _ = write!(out, " fc {}", entries.len());
    for (set, class) in entries {
        let _ = write!(out, " {} {}", encode_class(*class), set.len());
        for d in set {
            let _ = write!(out, " {}", d.index());
        }
    }
}

fn decode_failures(t: &mut Tokens<'_>) -> Result<Vec<(Vec<DffId>, FailureClass)>, String> {
    t.expect("fc")?;
    let k = t.next_usize("failure-cache entry count")?;
    let mut entries = Vec::with_capacity(k);
    for _ in 0..k {
        let class = decode_class_token(t.next_str("failure class")?)?;
        let len = t.next_usize("flip-set length")?;
        let mut set = Vec::with_capacity(len);
        for _ in 0..len {
            set.push(DffId::from_index(t.next_usize("flip-set dff")?));
        }
        entries.push((set, class));
    }
    Ok(entries)
}

fn encode_rows(out: &mut String, rows: &[DelayAvfResult]) {
    let _ = write!(out, "rows {}", rows.len());
    for r in rows {
        let _ = write!(
            out,
            " {} {} {} {} {} {} {}",
            r.injections,
            r.static_hits,
            r.dynamic_hits,
            r.delay_ace_hits,
            r.sdc_hits,
            r.due_hits,
            r.multi_bit_hits
        );
        if let Some(o) = &r.orace {
            let _ = write!(out, " {} {} {}", o.or_hits, o.interference, o.compounding);
        }
    }
}

fn decode_rows(t: &mut Tokens<'_>, config: &CampaignConfig) -> Result<Vec<DelayAvfResult>, String> {
    t.expect("rows")?;
    let n = t.next_usize("row count")?;
    if n != config.delay_fractions.len() {
        return Err(format!(
            "checkpoint parse error: {n} rows != {} configured fractions",
            config.delay_fractions.len()
        ));
    }
    let mut rows = empty_rows(config);
    for row in &mut rows {
        row.injections = t.next_usize("injections")?;
        row.static_hits = t.next_usize("static_hits")?;
        row.dynamic_hits = t.next_usize("dynamic_hits")?;
        row.delay_ace_hits = t.next_usize("delay_ace_hits")?;
        row.sdc_hits = t.next_usize("sdc_hits")?;
        row.due_hits = t.next_usize("due_hits")?;
        row.multi_bit_hits = t.next_usize("multi_bit_hits")?;
        if let Some(o) = row.orace.as_mut() {
            o.or_hits = t.next_usize("or_hits")?;
            o.interference = t.next_usize("interference")?;
            o.compounding = t.next_usize("compounding")?;
        }
    }
    Ok(rows)
}

/// A sweep unit's payload: its result rows, then — adaptive units only —
/// the per-site visibility flags (fraction-major over the unit's selected
/// edges, `1` = visible) the plan's stratum tallies are rebuilt from on
/// resume, then its counter delta and failure-cache entries.
fn encode_sweep_unit(
    rows: &[DelayAvfResult],
    vis: Option<&[bool]>,
    stats: &InjectorStats,
    failures: &[(Vec<DffId>, FailureClass)],
) -> String {
    let mut out = String::new();
    encode_rows(&mut out, rows);
    if let Some(vis) = vis {
        out.push_str(" vis .");
        out.extend(vis.iter().map(|&v| if v { '1' } else { '0' }));
    }
    encode_stats(&mut out, stats);
    encode_failures(&mut out, failures);
    out
}

type SweepPayload = (
    Vec<DelayAvfResult>,
    Vec<bool>,
    InjectorStats,
    Vec<(Vec<DffId>, FailureClass)>,
);

/// Decodes an [`encode_sweep_unit`] payload. `sites` is an adaptive
/// unit's selected-edge count; uniform units (`None`) carry no flags.
fn decode_sweep_unit(
    payload: &str,
    config: &CampaignConfig,
    sites: Option<usize>,
) -> Result<SweepPayload, String> {
    let mut t = Tokens::new(payload);
    let rows = decode_rows(&mut t, config)?;
    let mut vis = Vec::new();
    if let Some(sites) = sites {
        t.expect("vis")?;
        let tok = t.next_str("visibility string")?;
        let body = tok
            .strip_prefix('.')
            .ok_or_else(|| format!("checkpoint parse error: bad visibility string `{tok}`"))?;
        vis = body
            .chars()
            .map(|c| match c {
                '1' => Ok(true),
                '0' => Ok(false),
                other => Err(format!(
                    "checkpoint parse error: bad visibility flag `{other}`"
                )),
            })
            .collect::<Result<_, _>>()?;
        if vis.len() != sites * config.delay_fractions.len() {
            return Err(format!(
                "checkpoint parse error: {} visibility flags != {} sites × {} fractions",
                vis.len(),
                sites,
                config.delay_fractions.len()
            ));
        }
    }
    let stats = decode_stats(&mut t)?;
    let failures = decode_failures(&mut t)?;
    if !t.finished() {
        return Err("checkpoint parse error: trailing payload tokens".into());
    }
    Ok((rows, vis, stats, failures))
}

fn encode_savf_unit(
    result: &SavfResult,
    stats: &InjectorStats,
    failures: &[(Vec<DffId>, FailureClass)],
) -> String {
    let mut out = format!("{} {}", result.injections, result.ace_hits);
    encode_stats(&mut out, stats);
    encode_failures(&mut out, failures);
    out
}

type SavfUnit = (SavfResult, InjectorStats, Vec<(Vec<DffId>, FailureClass)>);

fn decode_savf_unit(payload: &str) -> Result<SavfUnit, String> {
    let mut t = Tokens::new(payload);
    let result = SavfResult {
        injections: t.next_usize("injections")?,
        ace_hits: t.next_usize("ace_hits")?,
    };
    let stats = decode_stats(&mut t)?;
    let failures = decode_failures(&mut t)?;
    if !t.finished() {
        return Err("checkpoint parse error: trailing payload tokens".into());
    }
    Ok((result, stats, failures))
}

fn encode_records_unit(
    records: &[InjectionRecord],
    failures: &[(Vec<DffId>, FailureClass)],
) -> String {
    let mut out = String::new();
    let _ = write!(out, "rec {}", records.len());
    for r in records {
        let _ = write!(
            out,
            " {} {} {} {}",
            r.edge.index(),
            r.outcome.statically_reachable,
            encode_class(r.outcome.class),
            r.outcome.dynamic_set.len()
        );
        for d in &r.outcome.dynamic_set {
            let _ = write!(out, " {}", d.index());
        }
    }
    encode_failures(&mut out, failures);
    out
}

type RecordsUnit = (Vec<InjectionRecord>, Vec<(Vec<DffId>, FailureClass)>);

fn decode_records_unit(payload: &str, cycle: u64) -> Result<RecordsUnit, String> {
    let mut t = Tokens::new(payload);
    t.expect("rec")?;
    let m = t.next_usize("record count")?;
    let mut records = Vec::with_capacity(m);
    for _ in 0..m {
        let edge = EdgeId::from_index(t.next_usize("record edge")?);
        let statically_reachable = t.next_usize("statically reachable count")?;
        let class = decode_class_token(t.next_str("record class")?)?;
        let len = t.next_usize("dynamic-set length")?;
        let mut dynamic_set = Vec::with_capacity(len);
        for _ in 0..len {
            dynamic_set.push(DffId::from_index(t.next_usize("dynamic-set dff")?));
        }
        records.push(InjectionRecord {
            cycle,
            edge,
            outcome: InjectionOutcome {
                statically_reachable,
                dynamic_set,
                visible: class.is_visible(),
                class,
            },
        });
    }
    let failures = decode_failures(&mut t)?;
    if !t.finished() {
        return Err("checkpoint parse error: trailing payload tokens".into());
    }
    Ok((records, failures))
}

/// Per-bit payloads store one classification character per flip-flop of
/// the structure at the unit's cycle, with a leading `.` so an empty
/// flip-flop list still yields a token.
fn encode_per_bit_unit<E: Environment + Clone>(
    injector: &Injector<'_, E>,
    dffs: &[DffId],
    cycle: u64,
) -> String {
    let mut out = String::from("cls .");
    for &dff in dffs {
        let class = injector
            .cached_failure(cycle, &[dff])
            .expect("per-bit unit was just classified");
        out.push(encode_class(class));
    }
    out
}

fn decode_per_bit_unit(payload: &str, expected: usize) -> Result<Vec<FailureClass>, String> {
    let mut t = Tokens::new(payload);
    t.expect("cls")?;
    let tok = t.next_str("class string")?;
    let body = tok
        .strip_prefix('.')
        .ok_or_else(|| format!("checkpoint parse error: bad class string `{tok}`"))?;
    let classes: Vec<FailureClass> = body.chars().map(decode_class).collect::<Result<_, _>>()?;
    if classes.len() != expected || !t.finished() {
        return Err(format!(
            "checkpoint parse error: {} classes != {expected} expected",
            classes.len(),
        ));
    }
    Ok(classes)
}

fn merge_rows(into: &mut [DelayAvfResult], from: &[DelayAvfResult]) {
    for (row, part) in into.iter_mut().zip(from) {
        row.merge(part);
    }
}

/// Folds one injection outcome into a result row (shared by the sweep and
/// the record-keeping campaign so their accounting cannot diverge).
fn tally(row: &mut DelayAvfResult, outcome: &InjectionOutcome) {
    row.injections += 1;
    if outcome.statically_reachable > 0 {
        row.static_hits += 1;
    }
    if !outcome.dynamic_set.is_empty() {
        row.dynamic_hits += 1;
        if outcome.is_multi_bit() {
            row.multi_bit_hits += 1;
        }
    }
    if outcome.visible {
        row.delay_ace_hits += 1;
        match outcome.class {
            FailureClass::Sdc => row.sdc_hits += 1,
            FailureClass::Due => row.due_hits += 1,
            FailureClass::Masked => unreachable!("visible"),
        }
    }
}

/// One empty result row per configured delay fraction.
fn empty_rows(config: &CampaignConfig) -> Vec<DelayAvfResult> {
    config
        .delay_fractions
        .iter()
        .map(|&fraction| DelayAvfResult {
            delay_fraction: fraction,
            orace: config.compute_orace.then(OraceStats::default),
            ..DelayAvfResult::default()
        })
        .collect()
}

/// One DelayAVF work unit: the full fraction sweep at a single trace
/// cycle, returning the result rows and each injection's
/// program-visibility flag in tally order (fraction-major, edge-minor) —
/// the per-site signal the adaptive sampler's stratum tallies consume.
/// Cycle-outer iteration makes every unit's contribution (row deltas,
/// counter deltas, the failure-cache entries at boundary `cycle + 1`)
/// independent of which other units ran — the invariant the checkpoint
/// layer builds on — and lets all fractions share one golden waveform
/// build and one cycle reconstruction.
fn delay_sweep_unit<E: Environment + Clone>(
    injector: &mut Injector<'_, E>,
    timing: &TimingModel,
    edges: &[EdgeId],
    config: &CampaignConfig,
    cycle: u64,
    time_phases: bool,
    phases: &mut PhaseTotals,
) -> (Vec<DelayAvfResult>, Vec<bool>) {
    let mut vis = Vec::with_capacity(config.delay_fractions.len() * edges.len());
    let mut rows = empty_rows(config);
    // Golden-settle phase: reconstruct the cycle context once for every
    // fraction and edge injected here (touches no counters, so timing it
    // separately cannot perturb the deterministic report path).
    timed(time_phases, &mut phases.golden_settle_us, || {
        injector.warm_cycle_data(cycle)
    });
    if edges.is_empty() {
        return (rows, vis);
    }
    // Phase 1 (timing-aware): one lane-packing pass over the whole cycle.
    // Every fraction's (edge, extra) pairs are handed to the batch carver
    // together, fraction-major, so the per-pair filter decisions and the
    // scalar fallback run in exactly the per-fraction loop's order while
    // survivors from *different* fractions share lanes whenever their
    // edges don't conflict (the carver keeps same-edge/different-extra
    // pairs apart, which the packed engine would retire anyway).
    let pairs: Vec<(EdgeId, Picos)> = config
        .delay_fractions
        .iter()
        .flat_map(|&fraction| {
            let extra = fraction_to_picos(timing, fraction);
            edges.iter().map(move |&edge| (edge, extra))
        })
        .collect();
    let mut parts: Vec<(usize, Vec<DffId>)> =
        timed(time_phases, &mut phases.timing_step_us, || {
            injector.dynamically_reachable_batch(cycle, &pairs)
        });
    for (fi, parts) in parts.chunks_mut(edges.len()).enumerate() {
        timed(time_phases, &mut phases.replay_us, || {
            // Phase 2: batch the whole boundary's replays — group sets and,
            // for ORACE, the individual bits they contain.
            injector.prefill_failures(cycle + 1, parts.iter().map(|(_, set)| set.clone()));
            if config.compute_orace {
                injector.prefill_failures(
                    cycle + 1,
                    parts
                        .iter()
                        .flat_map(|(_, set)| set.iter().map(|&d| vec![d])),
                );
            }
            // Phase 3 (cache-served): identical tally order to the scalar
            // engine's interleaved loop.
            for (statically_reachable, dynamic_set) in parts.iter_mut() {
                let outcome = injector.classify_injection(
                    cycle,
                    *statically_reachable,
                    std::mem::take(dynamic_set),
                );
                vis.push(outcome.visible);
                tally(&mut rows[fi], &outcome);
                if config.compute_orace && !outcome.dynamic_set.is_empty() {
                    let or = injector.or_ace(cycle + 1, &outcome.dynamic_set);
                    let o = rows[fi].orace.as_mut().expect("orace rows configured");
                    if or {
                        o.or_hits += 1;
                    }
                    if or && !outcome.visible {
                        o.interference += 1;
                    }
                    if !or && outcome.visible {
                        o.compounding += 1;
                    }
                }
            }
        });
    }
    (rows, vis)
}

// ---------------------------------------------------------------------------
// Work units. Each campaign's unit body serves its uniform and its adaptive
// run alike: it restores the unit from the checkpoint when resumed,
// otherwise computes it, serializes it when checkpointing, and reports it
// to the worker's observer. Every body first drops the worker's golden
// settles behind its cycle: a worker claims units in ascending cycle order,
// so without this each worker would keep golden caches for the whole trace.
// ---------------------------------------------------------------------------

/// A sweep unit's contribution: result rows, visibility flags in tally
/// order, and the counter delta.
type SweepUnit = (Vec<DelayAvfResult>, Vec<bool>, InjectorStats);

/// The sweep unit keyed `key`: every fraction over `edges` at `cycle`.
/// Adaptive units persist their visibility flags too.
fn sweep_unit<E: Environment + Clone, S: TelemetrySink>(
    d: &Driver<'_, E, S>,
    w: &mut Worker<'_, E, S>,
    config: &CampaignConfig,
    key: u64,
    cycle: u64,
    edges: &[EdgeId],
) -> Result<SweepUnit, String> {
    w.injector.release_golden_before(cycle);
    let with_vis = d.opts.ci_target.is_some();
    if let Some(payload) = d.resumed(key) {
        let (rows, vis, stats, failures) =
            decode_sweep_unit(payload, config, with_vis.then_some(edges.len()))?;
        w.injector.preload_failures(cycle + 1, failures);
        w.obs.unit_done(key, None, Some(&stats))?;
        return Ok((rows, vis, stats));
    }
    let before = w.injector.stats;
    let (rows, vis) = delay_sweep_unit(
        &mut w.injector,
        d.timing,
        edges,
        config,
        cycle,
        S::ENABLED,
        &mut w.obs.phases,
    );
    let delta = w.injector.stats.delta_since(&before);
    let payload = d.checkpointing().then(|| {
        encode_sweep_unit(
            &rows,
            with_vis.then_some(&vis[..]),
            &delta,
            &w.injector.snapshot_failures(cycle + 1),
        )
    });
    w.obs.unit_done(key, payload, Some(&delta))?;
    Ok((rows, vis, delta))
}

/// The sAVF unit at `cycle`: a single-bit strike on each of `dffs`.
fn savf_unit<E: Environment + Clone, S: TelemetrySink>(
    d: &Driver<'_, E, S>,
    w: &mut Worker<'_, E, S>,
    dffs: &[DffId],
    key: u64,
    cycle: u64,
) -> Result<(SavfResult, InjectorStats), String> {
    w.injector.release_golden_before(cycle);
    if let Some(payload) = d.resumed(key) {
        let (unit, stats, failures) = decode_savf_unit(payload)?;
        w.injector.preload_failures(cycle, failures);
        w.obs.unit_done(key, None, Some(&stats))?;
        return Ok((unit, stats));
    }
    let before = w.injector.stats;
    let mut unit = SavfResult::default();
    let injector = &mut w.injector;
    timed(S::ENABLED, &mut w.obs.phases.replay_us, || {
        injector.prefill_failures(cycle, dffs.iter().map(|&d| vec![d]));
        for &dff in dffs {
            unit.injections += 1;
            if injector.bit_ace(cycle, dff) {
                unit.ace_hits += 1;
            }
        }
    });
    let delta = w.injector.stats.delta_since(&before);
    let payload = d
        .checkpointing()
        .then(|| encode_savf_unit(&unit, &delta, &w.injector.snapshot_failures(cycle)));
    w.obs.unit_done(key, payload, Some(&delta))?;
    Ok((unit, delta))
}

/// The records unit at `cycle`: one record per edge of `edges`, in edge
/// order, delayed by `extra`. Resumed units replay their serialized
/// records instead of re-simulating.
fn records_unit<E: Environment + Clone, S: TelemetrySink>(
    d: &Driver<'_, E, S>,
    w: &mut Worker<'_, E, S>,
    edges: &[EdgeId],
    extra: Picos,
    key: u64,
    cycle: u64,
) -> Result<Vec<InjectionRecord>, String> {
    w.injector.release_golden_before(cycle);
    if let Some(payload) = d.resumed(key) {
        let (records, failures) = decode_records_unit(payload, cycle)?;
        w.injector.preload_failures(cycle + 1, failures);
        w.obs.unit_done(key, None, None)?;
        return Ok(records);
    }
    // Same two-phase structure as the sweep: collect the cycle's dynamic
    // sets, batch their replays, then record in edge order.
    let injector = &mut w.injector;
    let phases = &mut w.obs.phases;
    timed(S::ENABLED, &mut phases.golden_settle_us, || {
        injector.warm_cycle_data(cycle)
    });
    let pairs: Vec<(EdgeId, Picos)> = edges.iter().map(|&edge| (edge, extra)).collect();
    let parts: Vec<(usize, Vec<DffId>)> = timed(S::ENABLED, &mut phases.timing_step_us, || {
        injector.dynamically_reachable_batch(cycle, &pairs)
    });
    let records: Vec<InjectionRecord> = timed(S::ENABLED, &mut phases.replay_us, || {
        injector.prefill_failures(cycle + 1, parts.iter().map(|(_, set)| set.clone()));
        edges
            .iter()
            .zip(parts)
            .map(
                |(&edge, (statically_reachable, dynamic_set))| InjectionRecord {
                    cycle,
                    edge,
                    outcome: injector.classify_injection(cycle, statically_reachable, dynamic_set),
                },
            )
            .collect()
    });
    let payload = d
        .checkpointing()
        .then(|| encode_records_unit(&records, &w.injector.snapshot_failures(cycle + 1)));
    w.obs.unit_done(key, payload, None)?;
    Ok(records)
}

/// The per-bit unit at `cycle`: each of `dffs`' strike visibility, in
/// `dffs` order, from one all-bit prefill of the boundary.
fn per_bit_unit<E: Environment + Clone, S: TelemetrySink>(
    d: &Driver<'_, E, S>,
    w: &mut Worker<'_, E, S>,
    dffs: &[DffId],
    key: u64,
    cycle: u64,
) -> Result<Vec<bool>, String> {
    w.injector.release_golden_before(cycle);
    if let Some(payload) = d.resumed(key) {
        let classes = decode_per_bit_unit(payload, dffs.len())?;
        w.obs.unit_done(key, None, None)?;
        return Ok(classes.iter().map(|c| c.is_visible()).collect());
    }
    let injector = &mut w.injector;
    let flags: Vec<bool> = timed(S::ENABLED, &mut w.obs.phases.replay_us, || {
        injector.prefill_failures(cycle, dffs.iter().map(|&d| vec![d]));
        dffs.iter()
            .map(|&dff| injector.bit_ace(cycle, dff))
            .collect()
    });
    let payload = d
        .checkpointing()
        .then(|| encode_per_bit_unit(&w.injector, dffs, cycle));
    w.obs.unit_done(key, payload, None)?;
    Ok(flags)
}

/// The spatial double-strike unit at `cycle`: every adjacent pair of
/// `dffs` flipped together. A resumed unit preloads its boundary's pair
/// classifications and replays the tally loop from the warmed cache.
fn spatial_unit<E: Environment + Clone, S: TelemetrySink>(
    d: &Driver<'_, E, S>,
    w: &mut Worker<'_, E, S>,
    dffs: &[DffId],
    key: u64,
    cycle: u64,
) -> Result<SavfResult, String> {
    w.injector.release_golden_before(cycle);
    let resumed = d.resumed(key);
    if let Some(payload) = resumed {
        let mut t = Tokens::new(payload);
        let failures = decode_failures(&mut t)?;
        if !t.finished() {
            return Err("checkpoint parse error: trailing payload tokens".into());
        }
        w.injector.preload_failures(cycle, failures);
    }
    let mut unit = SavfResult::default();
    let injector = &mut w.injector;
    timed(S::ENABLED, &mut w.obs.phases.replay_us, || {
        injector.prefill_failures(cycle, dffs.windows(2).map(|p| p.to_vec()));
        for pair in dffs.windows(2) {
            unit.injections += 1;
            if injector.group_ace(cycle, pair) {
                unit.ace_hits += 1;
            }
        }
    });
    let payload = (d.checkpointing() && resumed.is_none()).then(|| {
        let mut out = String::new();
        encode_failures(&mut out, &w.injector.snapshot_failures(cycle));
        out.trim_start().to_owned()
    });
    w.obs.unit_done(key, payload, None)?;
    Ok(unit)
}

fn edge_items(edges: &[EdgeId]) -> Vec<usize> {
    edges.iter().map(|e| e.index()).collect()
}

// ---------------------------------------------------------------------------
// The campaign driver. Uniform runs (`ci_target` unset, the default) are
// one round over every valid cycle. Adaptive runs stratify the injection
// sites by cheap static signals — edge static slack and per-cycle toggle
// activity — allocate each round's replay budget Neyman-style from the
// running per-stratum tallies, and retire a stratum as soon as every
// estimand's composed Wilson interval is inside the target half-width.
// Both feed every unit through the same campaign fold.
// ---------------------------------------------------------------------------

/// What tells one campaign kind apart to [`run_campaign`], besides its
/// unit body and its fold.
struct Campaign<'c> {
    /// Checkpoint and telemetry kinds of the uniform and the adaptive run.
    kinds: [&'static str; 2],
    /// Injected items (edge or flip-flop indices), fingerprinted.
    items: Vec<usize>,
    /// Sweep parameters, fingerprinted (empty and `false` for strikes).
    fractions: &'c [f64],
    orace: bool,
    /// `Some(edges)` when each (cycle, edge) pair is an adaptive site (the
    /// sweep), `None` when each cycle is one.
    site_edges: Option<&'c [EdgeId]>,
    /// Estimands tallied per adaptive site.
    estimands: usize,
}

/// Records one site's per-estimand hits and trials into the adaptive plan;
/// the site is given by its position in the unit's `positions`.
type Record<'r> = dyn FnMut(usize, &[u64], &[u64]) + 'r;

/// Runs campaign `c` and returns `out` with every unit folded in.
///
/// Each unit runs `unit(driver, worker, key, cycle, positions)` on a
/// worker — `positions` are the unit's selected edges for the sweep and
/// `[0]` for cycle-site campaigns — and is then folded into `out` in unit
/// order by `fold(out, unit, record)`. Uniform runs are one round over
/// every valid cycle with every position, and `record` is a no-op; adaptive
/// runs repeat rounds until the plan retires, `record` feeds the plan, and
/// `finish(out, plan)` fills in the adaptive columns and counters at the
/// end. Unit keys are `cycle`, or [`round_key`] for the sweep, whose
/// adaptive rounds can revisit a cycle with other edges.
#[allow(clippy::too_many_arguments)]
fn run_campaign<E, S, U, O>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    opts: ReplayOptions,
    ctx: &RunContext<'_, S>,
    c: Campaign<'_>,
    mut out: O,
    unit: impl Fn(&Driver<'_, E, S>, &mut Worker<'_, E, S>, u64, u64, &[usize]) -> Result<U, String>
        + Sync,
    mut fold: impl FnMut(&mut O, U, &mut Record<'_>),
    finish: impl FnOnce(&mut O, &AdaptivePlan),
) -> Result<O, String>
where
    E: Environment + Clone,
    S: TelemetrySink,
    U: Send,
{
    let adaptive = match opts.ci_target {
        None => None,
        Some(target) => Some((validate_ci_target(target)?, validate_strata(opts.strata)?)),
    };
    let d = Driver::open(circuit, topo, timing, golden, opts, ctx, &c)?;
    // Sites per cycle (an edge-less sweep has none, and its plan no sites).
    let per_cycle = c.site_edges.map_or(1, <[EdgeId]>::len);
    let mut plan = adaptive.map(|(target, buckets)| {
        AdaptivePlan::new(
            site_strata(&d, c.site_edges, buckets),
            buckets * buckets,
            c.estimands,
            target,
            opts.sample_seed,
        )
    });
    let units = plan
        .as_ref()
        .map_or(d.cycles.len(), AdaptivePlan::population);
    d.observe(units, || {
        let mut round: u64 = 0;
        loop {
            // Each unit is one cycle and the positions selected there: the
            // unit body batches one latch boundary, and grouping keeps
            // per-unit work independent of how sites landed across strata.
            let groups: Vec<(usize, Vec<usize>)> = match plan.as_mut() {
                None if round > 0 => break,
                None => {
                    let all: Vec<usize> = (0..per_cycle).collect();
                    (0..d.cycles.len()).map(|pos| (pos, all.clone())).collect()
                }
                Some(plan) => {
                    let sites = plan.next_round();
                    if sites.is_empty() {
                        break;
                    }
                    let mut by_cycle: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                    for site in sites {
                        by_cycle
                            .entry(site / per_cycle)
                            .or_default()
                            .push(site % per_cycle);
                    }
                    by_cycle.into_iter().collect()
                }
            };
            let results = d.run(&groups, |w, (pos, positions)| {
                let cycle = d.cycles[*pos];
                let key = match c.site_edges {
                    Some(_) => round_key(round, cycle),
                    None => cycle,
                };
                unit(&d, w, key, cycle, positions)
            })?;
            for ((pos, positions), u) in groups.iter().zip(results) {
                fold(&mut out, u, &mut |j, hits, trials| {
                    if let Some(plan) = plan.as_mut() {
                        plan.record(pos * per_cycle + positions[j], hits, trials);
                    }
                });
            }
            if let Some(plan) = plan.as_mut() {
                plan.finish_round();
            }
            round += 1;
        }
        if let Some(plan) = &plan {
            finish(&mut out, plan);
        }
        Ok(out)
    })
}

/// Packs a unit key: adaptive sweep rounds may revisit a cycle with a
/// different edge subset, so the key embeds the round number (round 0, the
/// whole uniform run, keys by the bare cycle).
fn round_key(round: u64, cycle: u64) -> u64 {
    debug_assert!(cycle < (1 << 44), "trace cycle overflows the round key");
    (round << 44) | cycle
}

/// Number of flip-flop bits that toggled entering `cycle`: the XOR
/// popcount between the packed golden states at `cycle - 1` and `cycle`.
/// High-activity cycles propagate more transitions and are where delay
/// faults tend to land, so toggle count is one stratification axis.
fn toggle_activity<E: Environment + Clone>(golden: &GoldenRun<E>, cycle: u64) -> u64 {
    let prev = golden.trace.state_at(cycle - 1);
    let cur = golden.trace.state_at(cycle);
    prev.iter()
        .zip(cur)
        .map(|(&a, &b)| u64::from((a ^ b).count_ones()))
        .sum()
}

/// Static slack of `edge`: clock period minus the longest complete path
/// through it (setup included). Tight edges are the likeliest DelayACE
/// candidates, so slack is the second stratification axis for the sweep.
fn edge_static_slack(
    timing: &TimingModel,
    circuit: &Circuit,
    topo: &Topology,
    edge: EdgeId,
) -> u64 {
    let longest = timing
        .edge_slack_entries(circuit, topo, edge)
        .last()
        .map_or(0, |&(path, _)| path);
    timing.clock_period().saturating_sub(longest)
}

/// Stratum labels of the adaptive sites. Cycle sites (the particle-strike
/// and records campaigns) cross a toggle-activity bucket with a
/// trace-phase bucket, so bursty program phases cannot hide inside one
/// homogeneous-looking stratum; sweep sites (cycle-major, edge-minor) cross
/// the edge's static-slack bucket with the cycle's toggle bucket.
fn site_strata<E: Environment + Clone, S: TelemetrySink>(
    d: &Driver<'_, E, S>,
    site_edges: Option<&[EdgeId]>,
    buckets: usize,
) -> Vec<usize> {
    let n = d.cycles.len();
    let toggles: Vec<u64> = d
        .cycles
        .iter()
        .map(|&cycle| toggle_activity(d.golden, cycle))
        .collect();
    let tb = bucket_axis(&toggles, buckets);
    let Some(edges) = site_edges else {
        return (0..n)
            .map(|i| tb[i] * buckets + (i * buckets) / n.max(1))
            .collect();
    };
    let slacks: Vec<u64> = edges
        .iter()
        .map(|&edge| edge_static_slack(d.timing, d.circuit, d.topo, edge))
        .collect();
    let sb = bucket_axis(&slacks, buckets);
    let ne = edges.len().max(1);
    (0..n * edges.len())
        .map(|site| sb[site % ne] * buckets + tb[site / ne])
        .collect()
}

/// Sets the adaptive plan's three counters; `per_site` injections were
/// skipped for every site the plan never sampled.
fn set_strata_counters(stats: &mut InjectorStats, plan: &AdaptivePlan, per_site: usize) {
    stats.strata_active = plan.strata_active() as u64;
    stats.strata_retired_early = plan.strata_retired_early() as u64;
    stats.adaptive_replays_saved = ((plan.population() - plan.sampled_sites()) * per_site) as u64;
}

/// The adaptive plan's interval for estimand `e`, as a report column.
fn adaptive_estimate(plan: &AdaptivePlan, e: usize) -> AdaptiveEstimate {
    let est = plan.estimate(e);
    AdaptiveEstimate {
        point: est.point,
        lo: est.lo,
        hi: est.hi,
        population: plan.population(),
        sampled: plan.sampled_sites(),
    }
}

// ---------------------------------------------------------------------------
// Campaign entry points.
// ---------------------------------------------------------------------------

/// Runs a DelayAVF sweep: every sampled cycle × every given edge × every
/// delay fraction. Returns one [`DelayAvfResult`] per delay fraction, in
/// the configured order.
///
/// The denominator of each result counts all (edge, cycle) injections, so
/// `DelayAvfResult::delay_avf` directly instantiates Equation 3 over the
/// sample.
pub fn delay_avf_campaign<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    edges: &[EdgeId],
    config: &CampaignConfig,
) -> Vec<DelayAvfResult> {
    delay_avf_campaign_with_stats(circuit, topo, timing, golden, edges, config).0
}

/// Like [`delay_avf_campaign`], also returning the merged engine counters
/// of all workers (used for §V-C prefilter reporting and by the
/// determinism tests; identical for every thread count).
pub fn delay_avf_campaign_with_stats<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    edges: &[EdgeId],
    config: &CampaignConfig,
) -> (Vec<DelayAvfResult>, InjectorStats) {
    delay_avf_campaign_observed(
        circuit,
        topo,
        timing,
        golden,
        edges,
        config,
        &RunContext::disabled(),
    )
    .expect("campaign without checkpointing is infallible")
}

/// [`delay_avf_campaign_with_stats`] under a [`RunContext`]: emits the
/// structured telemetry stream and, when a checkpoint is configured,
/// periodically snapshots completed cycle units and/or resumes from a
/// previous snapshot. Resumed runs produce byte-identical reports and
/// identical merged stats to uninterrupted ones for any
/// `threads × lanes × delta_timing` combination (the knob hash rejects
/// resumes across `lanes`/`incremental`/`delta_timing` changes, which
/// would silently break the *stats* identity; `threads` may change
/// freely).
///
/// With `config.replay.ci_target` set, sites are (cycle, edge) pairs
/// stratified by edge static slack × cycle toggle activity, and each
/// round's selected sites are grouped per cycle so the batched unit body
/// (and its caches) still see one latch boundary at a time.
///
/// # Errors
///
/// Fails on checkpoint I/O errors and on resuming against a mismatched or
/// corrupt checkpoint file (`checkpoint mismatch` / `checkpoint parse
/// error`). Never fails when `ctx.checkpoint` is `None` and the adaptive
/// knobs are valid.
pub fn delay_avf_campaign_observed<E: Environment + Clone, S: TelemetrySink>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    edges: &[EdgeId],
    config: &CampaignConfig,
    ctx: &RunContext<'_, S>,
) -> Result<(Vec<DelayAvfResult>, InjectorStats), String> {
    let nf = config.delay_fractions.len();
    let campaign = Campaign {
        kinds: ["delay_sweep", "delay_sweep_adaptive"],
        items: edge_items(edges),
        fractions: &config.delay_fractions,
        orace: config.compute_orace,
        site_edges: Some(edges),
        estimands: nf,
    };
    let trials = vec![1u64; nf];
    run_campaign(
        circuit,
        topo,
        timing,
        golden,
        config.replay,
        ctx,
        campaign,
        (empty_rows(config), InjectorStats::default()),
        |d, w, key, cycle, positions| {
            let selected: Vec<EdgeId> = positions.iter().map(|&ei| edges[ei]).collect();
            sweep_unit(d, w, config, key, cycle, &selected)
        },
        |(rows, stats), (unit_rows, vis, delta), record| {
            merge_rows(rows, &unit_rows);
            stats.merge(&delta);
            // `vis` is fraction-major over the unit's edges.
            let width = vis.len() / nf.max(1);
            for j in 0..width {
                let hits: Vec<u64> = (0..nf).map(|fi| u64::from(vis[fi * width + j])).collect();
                record(j, &hits, &trials);
            }
        },
        |(rows, stats), plan| {
            set_strata_counters(stats, plan, nf);
            for (fi, row) in rows.iter_mut().enumerate() {
                row.adaptive = Some(adaptive_estimate(plan, fi));
            }
        },
    )
}

/// Runs a particle-strike campaign: a single bit flip in each of `dffs` at
/// every sampled cycle, classic single-bit ACE analysis (Equation 1).
/// `opts.threads = 0` uses one worker per available core.
pub fn savf_campaign<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
) -> SavfResult {
    savf_campaign_with_stats(circuit, topo, timing, golden, dffs, opts).0
}

/// Like [`savf_campaign`], also returning the merged engine counters.
pub fn savf_campaign_with_stats<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
) -> (SavfResult, InjectorStats) {
    savf_campaign_observed(
        circuit,
        topo,
        timing,
        golden,
        dffs,
        opts,
        &RunContext::disabled(),
    )
    .expect("campaign without checkpointing is infallible")
}

/// [`savf_campaign_with_stats`] under a [`RunContext`]; see
/// [`delay_avf_campaign_observed`] for the checkpoint/resume and telemetry
/// semantics (work units are trace cycles here too, classified at
/// boundary `cycle` per the strike-model convention). Adaptive sites are
/// trace cycles stratified by toggle activity × trace phase; each sampled
/// cycle runs the full per-bit strike unit, so the estimand is the same ACE
/// fraction the uniform campaign reports.
///
/// # Errors
///
/// Same failure modes as [`delay_avf_campaign_observed`].
pub fn savf_campaign_observed<E: Environment + Clone, S: TelemetrySink>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
    ctx: &RunContext<'_, S>,
) -> Result<(SavfResult, InjectorStats), String> {
    run_campaign(
        circuit,
        topo,
        timing,
        golden,
        opts,
        ctx,
        strike_campaign(["savf", "savf_adaptive"], dffs, 1),
        (SavfResult::default(), InjectorStats::default()),
        |d, w, key, cycle, _| savf_unit(d, w, dffs, key, cycle),
        |(result, stats), (unit, delta), record| {
            result.merge(&unit);
            stats.merge(&delta);
            record(0, &[unit.ace_hits as u64], &[unit.injections as u64]);
        },
        |(_, stats), plan| set_strata_counters(stats, plan, dffs.len()),
    )
}

/// The [`Campaign`] of a strike campaign over `dffs`: cycle sites,
/// `estimands` tallies per site.
fn strike_campaign(
    kinds: [&'static str; 2],
    dffs: &[DffId],
    estimands: usize,
) -> Campaign<'static> {
    Campaign {
        kinds,
        items: dffs.iter().map(|d| d.index()).collect(),
        fractions: &[],
        orace: false,
        site_edges: None,
        estimands,
    }
}

/// Like [`delay_avf_campaign`] for a **single** delay fraction, but also
/// returning every injection's record (cycle, edge, dynamic set,
/// visibility) for downstream analyses such as Razor protection planning
/// ([`crate::razor`]). Records come back in (cycle, edge) sampling order
/// regardless of `opts.threads`.
pub fn delay_avf_campaign_records<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    edges: &[EdgeId],
    fraction: f64,
    opts: ReplayOptions,
) -> (DelayAvfResult, Vec<InjectionRecord>) {
    delay_avf_campaign_records_observed(
        circuit,
        topo,
        timing,
        golden,
        edges,
        fraction,
        opts,
        &RunContext::disabled(),
    )
    .expect("campaign without checkpointing is infallible")
}

/// [`delay_avf_campaign_records`] under a [`RunContext`]; see
/// [`delay_avf_campaign_observed`] for the checkpoint/resume and telemetry
/// semantics. Resumed cycle units replay their serialized records (and the
/// tallies re-derived from them) instead of re-simulating. Adaptive runs
/// sample whole cycles; the returned row then carries the stratified
/// estimate, and the records cover the sampled cycles only, in (round,
/// cycle, edge) order.
///
/// # Errors
///
/// Same failure modes as [`delay_avf_campaign_observed`].
#[allow(clippy::too_many_arguments)]
pub fn delay_avf_campaign_records_observed<E: Environment + Clone, S: TelemetrySink>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    edges: &[EdgeId],
    fraction: f64,
    opts: ReplayOptions,
    ctx: &RunContext<'_, S>,
) -> Result<(DelayAvfResult, Vec<InjectionRecord>), String> {
    let extra = fraction_to_picos(timing, fraction);
    let campaign = Campaign {
        kinds: ["delay_records", "delay_records_adaptive"],
        items: edge_items(edges),
        fractions: &[fraction],
        orace: false,
        site_edges: None,
        estimands: 1,
    };
    let row = DelayAvfResult {
        delay_fraction: fraction,
        ..DelayAvfResult::default()
    };
    run_campaign(
        circuit,
        topo,
        timing,
        golden,
        opts,
        ctx,
        campaign,
        (row, Vec::new()),
        |d, w, key, cycle, _| records_unit(d, w, edges, extra, key, cycle),
        |(row, records), unit, record| {
            for r in &unit {
                tally(row, &r.outcome);
            }
            let hits = unit.iter().filter(|r| r.outcome.visible).count() as u64;
            record(0, &[hits], &[edges.len() as u64]);
            records.extend(unit);
        },
        |(row, _), plan| row.adaptive = Some(adaptive_estimate(plan, 0)),
    )
}

/// Per-bit sAVF: like [`savf_campaign`] but reporting each flip-flop's
/// individual ACE fraction, so designers can locate a structure's
/// vulnerability *hotspots* (the bits worth hardening first). The returned
/// order follows `dffs` regardless of `opts.threads`.
pub fn savf_per_bit_campaign<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
) -> Vec<(DffId, SavfResult)> {
    savf_per_bit_campaign_observed(
        circuit,
        topo,
        timing,
        golden,
        dffs,
        opts,
        &RunContext::disabled(),
    )
    .expect("campaign without checkpointing is infallible")
}

/// [`savf_per_bit_campaign`] under a [`RunContext`]. Work units are
/// cycles, like every other campaign's: each unit stores one
/// classification per bit, and the per-cycle flags are transposed into
/// per-bit tallies. (The checkpoint kind is `savf_per_bit_cycles`, so a
/// file from the older bit-keyed layout is a `checkpoint mismatch`.)
/// Adaptively, every bit is an estimand, and a stratum retires only when
/// all bits' intervals are tight, so hotspot bits keep drawing budget.
///
/// # Errors
///
/// Same failure modes as [`delay_avf_campaign_observed`].
pub fn savf_per_bit_campaign_observed<E: Environment + Clone, S: TelemetrySink>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
    ctx: &RunContext<'_, S>,
) -> Result<Vec<(DffId, SavfResult)>, String> {
    let kinds = ["savf_per_bit_cycles", "savf_per_bit_adaptive"];
    let trials = vec![1u64; dffs.len()];
    run_campaign(
        circuit,
        topo,
        timing,
        golden,
        opts,
        ctx,
        strike_campaign(kinds, dffs, dffs.len().max(1)),
        dffs.iter().map(|&d| (d, SavfResult::default())).collect(),
        |d, w, key, cycle, _| per_bit_unit(d, w, dffs, key, cycle),
        |out: &mut Vec<(DffId, SavfResult)>, flags, record| {
            let mut hits = Vec::with_capacity(flags.len());
            for ((_, r), ace) in out.iter_mut().zip(flags) {
                r.injections += 1;
                r.ace_hits += usize::from(ace);
                hits.push(u64::from(ace));
            }
            if hits.is_empty() {
                record(0, &[0], &[0]);
            } else {
                record(0, &hits, &trials);
            }
        },
        |_, _| {},
    )
}

/// Runs a **spatial double-bit** particle-strike campaign: simultaneous
/// flips of physically adjacent bit pairs, the multi-bit transient-fault
/// model of Wilkening et al. that the paper contrasts DelayAVF against
/// (§VIII). `dffs` must list a structure's bits in physical order;
/// consecutive entries form the struck pairs.
///
/// Unlike an SDF's dynamically reachable set, these pairs are fixed a
/// priori by layout adjacency — comparing the two campaigns quantifies how
/// much of delay-fault vulnerability spatial models can(not) capture.
///
/// Classification happens at boundary `cycle` (not `cycle + 1` as for
/// SDFs): a strike corrupts state that is already latched, whereas an SDF
/// corrupts the values being latched at the end of the faulty cycle — see
/// the module docs on latch-boundary conventions.
pub fn spatial_double_strike_campaign<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
) -> SavfResult {
    spatial_double_strike_campaign_observed(
        circuit,
        topo,
        timing,
        golden,
        dffs,
        opts,
        &RunContext::disabled(),
    )
    .expect("campaign without checkpointing is infallible")
}

/// [`spatial_double_strike_campaign`] under a [`RunContext`]. Work units
/// are cycles; a resumed unit preloads its boundary's pair
/// classifications and replays the tally loop from the warmed cache.
/// Adaptive sites are cycles with one estimand, the pairwise ACE fraction.
///
/// # Errors
///
/// Same failure modes as [`delay_avf_campaign_observed`].
pub fn spatial_double_strike_campaign_observed<E: Environment + Clone, S: TelemetrySink>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
    ctx: &RunContext<'_, S>,
) -> Result<SavfResult, String> {
    run_campaign(
        circuit,
        topo,
        timing,
        golden,
        opts,
        ctx,
        strike_campaign(["spatial_double", "spatial_double_adaptive"], dffs, 1),
        SavfResult::default(),
        |d, w, key, cycle, _| spatial_unit(d, w, dffs, key, cycle),
        |result, unit, record| {
            result.merge(&unit);
            record(0, &[unit.ace_hits as u64], &[unit.injections as u64]);
        },
        |_, _| {},
    )
}

fn fraction_to_picos(timing: &TimingModel, fraction: f64) -> Picos {
    (timing.clock_period() as f64 * fraction).round() as Picos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::prepare_golden;
    use delayavf_netlist::CircuitBuilder;
    use delayavf_sim::ConstEnvironment;
    use delayavf_timing::TechLibrary;

    /// Accumulator fixture: errors persist forever, so dynamic reach implies
    /// visibility under the never-halting environment.
    fn fixture() -> (delayavf_netlist::Circuit, Topology, TimingModel) {
        let mut b = CircuitBuilder::new();
        let step = b.input_word("step", 4);
        let acc = b.reg_word("acc", 4, 0);
        let next = b.in_structure("adder", |b| b.add(&acc.q(), &step));
        b.drive_word(&acc, &next);
        b.output_word("acc", &acc.q());
        let c = b.finish().unwrap();
        let topo = Topology::new(&c);
        let timing = TimingModel::analyze(&c, &topo, &TechLibrary::nangate45_like());
        (c, topo, timing)
    }

    #[test]
    fn sweep_is_monotone_in_static_reach() {
        let (c, topo, timing) = fixture();
        let env = ConstEnvironment::new(vec![5]);
        let golden = prepare_golden(&c, &topo, &env, 24, 6);
        let edges = topo.structure_edges(&c, "adder").unwrap();
        let config = CampaignConfig {
            delay_fractions: vec![0.1, 0.5, 1.0],
            compute_orace: false,
            replay: ReplayOptions::new(30, 1)
                .with_lanes(64)
                .with_timing_lanes(64),
        };
        let rows = delay_avf_campaign(&c, &topo, &timing, &golden, &edges, &config);
        assert_eq!(rows.len(), 3);
        // Static reachability can only grow with the delay duration.
        assert!(rows[0].static_fraction() <= rows[1].static_fraction());
        assert!(rows[1].static_fraction() <= rows[2].static_fraction());
        // Every injection is counted.
        for r in &rows {
            assert_eq!(r.injections, edges.len() * golden.sampled_cycles.len());
            assert!(r.dynamic_hits <= r.static_hits);
            assert!(r.delay_ace_hits <= r.dynamic_hits);
        }
    }

    #[test]
    fn orace_on_an_accumulator_has_no_interference() {
        // Every accumulator bit error is individually ACE and group errors
        // never cancel (distinct bits), so interference = compounding = 0
        // and OrDelayAVF == DelayAVF.
        let (c, topo, timing) = fixture();
        let env = ConstEnvironment::new(vec![5]);
        let golden = prepare_golden(&c, &topo, &env, 24, 4);
        let edges = topo.structure_edges(&c, "adder").unwrap();
        let config = CampaignConfig {
            delay_fractions: vec![0.9],
            compute_orace: true,
            replay: ReplayOptions::new(30, 1)
                .with_lanes(64)
                .with_timing_lanes(64),
        };
        let rows = delay_avf_campaign(&c, &topo, &timing, &golden, &edges, &config);
        let r = &rows[0];
        let o = r.orace.unwrap();
        assert_eq!(o.interference, 0);
        assert_eq!(o.compounding, 0);
        assert_eq!(r.or_delay_avf().unwrap(), r.delay_avf());
        assert_eq!(r.or_relative_change_pct(), Some(0.0));
    }

    #[test]
    fn per_bit_savf_sums_to_the_aggregate() {
        let (c, topo, timing) = fixture();
        let env = crate::testenv::ObservingEnv::new(5, 20);
        let golden = prepare_golden(&c, &topo, &env, 100, 4);
        let dffs: Vec<DffId> = c.dffs().map(|(d, _)| d).collect();
        let agg = savf_campaign(
            &c,
            &topo,
            &timing,
            &golden,
            &dffs,
            ReplayOptions::new(30, 1),
        );
        let per_bit = savf_per_bit_campaign(
            &c,
            &topo,
            &timing,
            &golden,
            &dffs,
            ReplayOptions::new(30, 1),
        );
        assert_eq!(per_bit.len(), dffs.len());
        let hits: usize = per_bit.iter().map(|(_, r)| r.ace_hits).sum();
        let trials: usize = per_bit.iter().map(|(_, r)| r.injections).sum();
        assert_eq!(hits, agg.ace_hits);
        assert_eq!(trials, agg.injections);
    }

    #[test]
    fn savf_of_an_accumulator_is_one() {
        let (c, topo, timing) = fixture();
        let env = crate::testenv::ObservingEnv::new(5, 20);
        let golden = prepare_golden(&c, &topo, &env, 100, 4);
        let dffs: Vec<DffId> = c.dffs().map(|(d, _)| d).collect();
        let r = savf_campaign(
            &c,
            &topo,
            &timing,
            &golden,
            &dffs,
            ReplayOptions::new(30, 1),
        );
        assert_eq!(r.injections, dffs.len() * golden.sampled_cycles.len());
        // Flips in the final executed cycle are never observed by the
        // environment (their outputs are past the last observation) — the
        // classic "un-ACE at end of program" effect. Everything else is ACE
        // in an accumulator.
        let n = golden.trace.num_cycles();
        let invisible_cycles = golden
            .sampled_cycles
            .iter()
            .filter(|&&cy| cy >= n - 1)
            .count();
        assert_eq!(r.ace_hits, r.injections - dffs.len() * invisible_cycles);
        assert!(r.savf() > 0.7);
    }

    /// The tentpole invariant: every campaign entry point returns exactly
    /// the serial answer for every thread count — including the ORACE
    /// statistics and the merged injector counters.
    #[test]
    fn parallel_campaigns_match_serial_bit_for_bit() {
        let (c, topo, timing) = fixture();
        let env = crate::testenv::ObservingEnv::new(5, 20);
        let golden = prepare_golden(&c, &topo, &env, 100, 8);
        let edges = topo.structure_edges(&c, "adder").unwrap();
        let dffs: Vec<DffId> = c.dffs().map(|(d, _)| d).collect();

        let config = CampaignConfig {
            delay_fractions: vec![0.2, 0.6, 1.0],
            compute_orace: true,
            replay: ReplayOptions::new(30, 1)
                .with_lanes(64)
                .with_timing_lanes(64),
        };
        let (serial_rows, serial_stats) =
            delay_avf_campaign_with_stats(&c, &topo, &timing, &golden, &edges, &config);
        let (serial_savf, serial_savf_stats) = savf_campaign_with_stats(
            &c,
            &topo,
            &timing,
            &golden,
            &dffs,
            ReplayOptions::new(30, 1),
        );
        let (serial_rec_row, serial_records) = delay_avf_campaign_records(
            &c,
            &topo,
            &timing,
            &golden,
            &edges,
            0.9,
            ReplayOptions::new(30, 1),
        );
        let serial_per_bit = savf_per_bit_campaign(
            &c,
            &topo,
            &timing,
            &golden,
            &dffs,
            ReplayOptions::new(30, 1),
        );
        let serial_spatial = spatial_double_strike_campaign(
            &c,
            &topo,
            &timing,
            &golden,
            &dffs,
            ReplayOptions::new(30, 1),
        );

        for threads in [2, 4] {
            let cfg = config.clone().with_threads(threads);
            let (rows, stats) =
                delay_avf_campaign_with_stats(&c, &topo, &timing, &golden, &edges, &cfg);
            assert_eq!(rows, serial_rows, "sweep rows, {threads} threads");
            assert_eq!(stats, serial_stats, "sweep stats, {threads} threads");

            let opts = ReplayOptions::new(30, threads);
            let (savf, savf_stats) =
                savf_campaign_with_stats(&c, &topo, &timing, &golden, &dffs, opts);
            assert_eq!(savf, serial_savf, "savf, {threads} threads");
            assert_eq!(
                savf_stats, serial_savf_stats,
                "savf stats, {threads} threads"
            );

            let (rec_row, records) =
                delay_avf_campaign_records(&c, &topo, &timing, &golden, &edges, 0.9, opts);
            assert_eq!(rec_row, serial_rec_row, "records row, {threads} threads");
            assert_eq!(records, serial_records, "records order, {threads} threads");

            let per_bit = savf_per_bit_campaign(&c, &topo, &timing, &golden, &dffs, opts);
            assert_eq!(per_bit, serial_per_bit, "per-bit, {threads} threads");

            let spatial = spatial_double_strike_campaign(&c, &topo, &timing, &golden, &dffs, opts);
            assert_eq!(spatial, serial_spatial, "spatial, {threads} threads");
        }
    }

    #[test]
    fn valid_cycles_drops_only_out_of_range_samples() {
        let (c, topo, timing) = fixture();
        let _ = &timing;
        let env = ConstEnvironment::new(vec![5]);
        let mut golden = prepare_golden(&c, &topo, &env, 24, 6);
        let n = golden.trace.num_cycles();
        // Poison the sample set with out-of-range cycles; campaigns must
        // skip them instead of panicking in the injector.
        golden.sampled_cycles.insert(0, 0);
        golden.sampled_cycles.push(n);
        golden.sampled_cycles.push(n + 7);
        let filtered = valid_cycles(&golden);
        assert!(filtered.iter().all(|&cy| cy >= 1 && cy < n));
        assert_eq!(filtered.len(), golden.sampled_cycles.len() - 3);
    }

    /// `run_units` with a worker-index init and a counting finish: returns
    /// the results plus how many workers finished.
    fn run_doubling(
        threads: usize,
        items: &[usize],
        fail_at: &[usize],
    ) -> (Result<Vec<usize>, String>, usize) {
        let finished = AtomicUsize::new(0);
        let result = run_units(
            threads,
            items,
            |worker| {
                assert!(worker < threads.max(1), "worker {worker} of {threads}");
                worker
            },
            |_, &item| {
                if fail_at.contains(&item) {
                    Err(format!("unit {item} failed"))
                } else {
                    Ok(item * 2)
                }
            },
            |_| {
                finished.fetch_add(1, Ordering::Relaxed);
            },
        );
        (result, finished.into_inner())
    }

    #[test]
    fn run_units_returns_item_order_on_exactly_the_requested_workers() {
        let items: Vec<usize> = (0..23).collect();
        let want: Vec<usize> = items.iter().map(|i| i * 2).collect();
        for threads in 1..=5 {
            let (got, workers) = run_doubling(threads, &items, &[]);
            assert_eq!(got.unwrap(), want, "threads={threads}");
            assert_eq!(workers, threads, "threads={threads}");
        }
        // More workers than items: the idle ones still start and finish.
        let (got, workers) = run_doubling(8, &items[..3], &[]);
        assert_eq!(got.unwrap(), vec![0, 2, 4]);
        assert_eq!(workers, 8);
        // Empty input.
        let (got, workers) = run_doubling(3, &[], &[]);
        assert_eq!(got.unwrap(), Vec::<usize>::new());
        assert_eq!(workers, 3);
    }

    #[test]
    fn run_units_returns_the_lowest_index_error() {
        let items: Vec<usize> = (0..60).collect();
        for threads in 1..=5 {
            for _ in 0..4 {
                let (got, workers) = run_doubling(threads, &items, &[41, 17, 30]);
                assert_eq!(got.unwrap_err(), "unit 17 failed", "threads={threads}");
                assert_eq!(workers, threads);
            }
        }
    }

    /// The counts a telemetry sink saw: resolved threads, the shard of
    /// every `phase_timers`, the summed `stats_delta`s, and every
    /// heartbeat's `(shard, done, total)`.
    #[derive(Default)]
    struct Seen {
        threads: Vec<usize>,
        phase_shards: Vec<usize>,
        stats: InjectorStats,
        beats: Vec<(usize, usize, usize)>,
    }

    #[derive(Default)]
    struct Recorder(Mutex<Seen>);

    impl TelemetrySink for Recorder {
        const ENABLED: bool = true;

        fn emit(&self, event: &TelemetryEvent<'_>) {
            let mut seen = self.0.lock().unwrap();
            match *event {
                TelemetryEvent::CampaignStart { threads, .. } => seen.threads.push(threads),
                TelemetryEvent::PhaseTimers { shard, .. } => seen.phase_shards.push(shard),
                TelemetryEvent::StatsDelta { stats, .. } => seen.stats.merge(&stats),
                TelemetryEvent::ShardHeartbeat {
                    shard, done, total, ..
                } => seen.beats.push((shard, done, total)),
                _ => {}
            }
        }
    }

    /// Every worker flushes its last counter delta and emits exactly one
    /// `phase_timers`, one per worker `campaign_start` announced, and
    /// heartbeats count the whole campaign.
    #[test]
    fn telemetry_matches_the_announced_workers_and_the_returned_counters() {
        let (c, topo, timing) = fixture();
        let env = crate::testenv::ObservingEnv::new(5, 20);
        let golden = prepare_golden(&c, &topo, &env, 100, 5);
        let units = valid_cycles(&golden).len();
        assert!(units >= 4, "fixture has {units} units");
        let dffs: Vec<DffId> = c.dffs().map(|(d, _)| d).collect();
        let edges = topo.structure_edges(&c, "adder").unwrap();
        for threads in 1..=5 {
            let sink = Recorder::default();
            let ctx = RunContext::new(&sink, None);
            let config = CampaignConfig {
                delay_fractions: vec![0.5, 1.0],
                replay: ReplayOptions::new(30, threads),
                ..CampaignConfig::default()
            };
            let (_, sweep_stats) =
                delay_avf_campaign_observed(&c, &topo, &timing, &golden, &edges, &config, &ctx)
                    .unwrap();
            let opts = ReplayOptions::new(30, threads);
            let (_, savf_stats) =
                savf_campaign_observed(&c, &topo, &timing, &golden, &dffs, opts, &ctx).unwrap();
            let seen = sink.0.into_inner().unwrap();
            let workers = threads.min(units);
            assert_eq!(seen.threads, vec![workers; 2], "threads={threads}");
            let mut shards = seen.phase_shards.clone();
            shards.sort_unstable();
            let mut want: Vec<usize> = (0..workers).chain(0..workers).collect();
            want.sort_unstable();
            assert_eq!(
                shards, want,
                "one phase_timers per worker, threads={threads}"
            );
            let mut total = sweep_stats;
            total.merge(&savf_stats);
            assert_eq!(seen.stats, total, "stats_delta sum, threads={threads}");
            assert!(seen
                .beats
                .iter()
                .all(|&(shard, done, t)| shard < workers && done <= t && t == units));
            assert_eq!(
                seen.beats
                    .iter()
                    .filter(|&&(_, done, _)| done == units)
                    .count(),
                2,
                "each campaign's last unit beats once, threads={threads}"
            );
        }
    }

    #[test]
    fn thread_resolution_clamps_to_work_items() {
        assert_eq!(resolve_threads(3, 100), 3);
        assert_eq!(resolve_threads(8, 2), 2);
        assert_eq!(resolve_threads(1, 0), 1);
        assert!(resolve_threads(0, 1_000_000) >= 1);
    }

    /// Every counter goes through the one field list: distinct values
    /// survive the checkpoint codec, the telemetry line and merge/delta.
    #[test]
    fn counter_table_carries_every_field_everywhere() {
        use crate::telemetry::{parse_flat_object, validate_line, JsonlTelemetry};
        let mut n = 0u64;
        let d = InjectorStats::try_from_fn(|_| {
            n += 1;
            Ok::<_, ()>(n * 1_000 + n)
        })
        .unwrap();
        let values = d.values();
        let mut distinct = values.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), InjectorStats::NAMES.len());

        let mut payload = String::new();
        encode_stats(&mut payload, &d);
        let mut t = Tokens::new(&payload);
        assert_eq!(decode_stats(&mut t).unwrap(), d);
        assert!(t.finished());

        let sink = JsonlTelemetry::new(Vec::new());
        sink.emit(&TelemetryEvent::StatsDelta { shard: 3, stats: d });
        let line = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(validate_line(&line).unwrap(), "stats_delta");
        let fields = parse_flat_object(&line).unwrap();
        assert_eq!(fields.len(), 4 + InjectorStats::NAMES.len(), "{line}");
        for (name, value) in InjectorStats::NAMES.iter().zip(values) {
            let got = fields
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| v.as_num());
            assert_eq!(got, Some(value as f64), "{name}");
        }
        // The validator requires the last counter too.
        let last = InjectorStats::NAMES[InjectorStats::NAMES.len() - 1];
        let cut = line.replace(&format!(",\"{last}\":{}", d.values()[values.len() - 1]), "");
        assert!(validate_line(&cut).unwrap_err().contains(last));

        let base = InjectorStats::try_from_fn(|_| Ok::<_, ()>(7)).unwrap();
        let mut a = base;
        a.merge(&d);
        assert_eq!(a.delta_since(&base), d);
    }

    /// A class token is exactly one class character, in the records payload
    /// and in the failure-cache entries alike.
    #[test]
    fn class_tokens_are_decoded_strictly() {
        assert!(decode_records_unit("rec 1 5 0 S 0 fc 0", 3).is_ok());
        let err = decode_records_unit("rec 1 5 0 SX 0 fc 0", 3).unwrap_err();
        assert!(err.contains("bad failure class `SX`"), "{err}");
        let err = decode_failures(&mut Tokens::new("fc 1 SX 1 2")).unwrap_err();
        assert!(err.contains("bad failure class `SX`"), "{err}");
    }

    #[test]
    fn heartbeat_rate_math_is_finite_on_degenerate_inputs() {
        // Instantaneous first unit: no measurable elapsed time yet, so no
        // rate and no ETA — never NaN or ∞.
        assert_eq!(heartbeat_rates(1, 10, 0.0), (0.0, 0.0));
        // Zero completed units at positive elapsed time: zero rate, and the
        // eta guard keeps 10/0 from becoming ∞.
        assert_eq!(heartbeat_rates(0, 10, 1.0), (0.0, 0.0));
        // Steady state: 5 units in 2.5 s is 2 units/s, 5 remaining = 2.5 s.
        let (ups, eta) = heartbeat_rates(5, 10, 2.5);
        assert!((ups - 2.0).abs() < 1e-12);
        assert!((eta - 2.5).abs() < 1e-12);
        // A finished (or overshot) campaign reports zero ETA instead of
        // panicking on `total - done` underflow.
        assert_eq!(heartbeat_rates(10, 10, 2.0).1, 0.0);
        assert_eq!(heartbeat_rates(11, 10, 2.0).1, 0.0);
    }
}
