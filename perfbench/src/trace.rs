//! Benchmark-side tracing: spans around every public call the benchmark
//! makes, and an in-memory telemetry sink for the campaigns' own events.
//!
//! Spans and events are kept in memory while a run measures and written
//! out once it ends, so the trace adds no I/O to the measured work.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use delayavf::{InjectorStats, PhaseTotals, TelemetryEvent, TelemetrySink};

/// One closed span: a named interval and the span that opened it.
struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    run: u64,
}

/// Records nested spans on the benchmark's (single) driving thread.
/// Disabled tracers record nothing, so untraced runs pay one branch per
/// public call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u64,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool, run: u64) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            run,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_s: self.origin.elapsed().as_secs_f64(),
                end_s: f64::NAN,
                parent: self.open.borrow().last().copied(),
                run: self.run,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Index the next span will get; spans from here on belong to a later
    /// phase of the run.
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time per span name, over the spans recorded since `mark`: each
    /// span's duration minus the part its direct children cover.
    pub fn self_times(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut own: Vec<f64> = spans.iter().map(|s| s.end_s - s.start_s).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] -= s.end_s - s.start_s;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().skip(mark) {
            *out.entry(s.name).or_insert(0.0) += own[i];
        }
        out
    }

    /// The recorded spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{:.6},\"end_s\":{:.6},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_s, s.end_s, s.run
            );
        }
        out
    }
}

/// What one campaign call told the in-memory sink.
#[derive(Default)]
pub struct CampaignEvents {
    /// Phase totals per shard index, summed over every `phase_timers`
    /// event of the campaign (adaptive campaigns emit one per round).
    pub shard_phases: BTreeMap<usize, PhaseTotals>,
    /// Sum of every `stats_delta` event.
    pub stats_deltas: InjectorStats,
    pub stats_delta_events: u64,
    pub campaign_starts: u64,
    pub campaign_ends: u64,
}

/// A telemetry sink that keeps every campaign event in memory.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<CampaignEvents>,
}

impl MemorySink {
    /// Hands over what was collected since the last call.
    pub fn take(&self) -> CampaignEvents {
        std::mem::take(&mut *self.events.lock().expect("sink lock poisoned"))
    }
}

impl TelemetrySink for MemorySink {
    const ENABLED: bool = true;

    fn emit(&self, event: &TelemetryEvent<'_>) {
        let Ok(mut e) = self.events.lock() else {
            return;
        };
        match *event {
            TelemetryEvent::CampaignStart { .. } => e.campaign_starts += 1,
            TelemetryEvent::CampaignEnd { .. } => e.campaign_ends += 1,
            TelemetryEvent::ShardHeartbeat { .. } | TelemetryEvent::CheckpointFlush { .. } => {}
            TelemetryEvent::PhaseTimers { shard, phases } => {
                e.shard_phases.entry(shard).or_default().merge(&phases);
            }
            TelemetryEvent::StatsDelta { stats, .. } => {
                e.stats_deltas.merge(&stats);
                e.stats_delta_events += 1;
            }
        }
    }
}
