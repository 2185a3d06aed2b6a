//! The traced run's two span sources.
//!
//! * [`Tracer`] records the harness's own spans around every public
//!   call it makes into a layer: name, start, end, parent span and
//!   operation id. Spans stay in memory and are written once, at the
//!   end of the run.
//! * [`SelfTimes`] folds the solver's own [`TelemetrySnapshot`] spans
//!   into inclusive and self-time totals per `category/name`, so no
//!   span is added inside the program.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use parvc_obs::{Lane, TelemetrySnapshot};

/// One harness span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct HarnessSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The operation this span belongs to (0 = set-up and layer probes).
    pub op: u64,
}

/// In-memory recorder of harness spans (one per thread; merge with
/// [`Tracer::absorb`]).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<HarnessSpan>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts attributing new spans to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(HarnessSpan {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "harness spans must nest");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes `id` under a name known only once the call returned (a
    /// cache hit or miss, say).
    pub fn end_as(&mut self, id: usize, name: &'static str) {
        self.end(id);
        self.spans[id].name = name;
    }

    /// Runs `f` inside a span called `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another thread's spans (parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations, in milliseconds, of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Total milliseconds spent in spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Inclusive and self time of one `category/name` span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Fold {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

/// Per-`category/name` totals folded from telemetry snapshots, plus
/// the spans the sinks had to drop.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Keyed by `(category, name)`.
    pub by_name: BTreeMap<(&'static str, &'static str), Fold>,
    pub dropped_spans: u64,
}

impl SelfTimes {
    /// Folds the wall-clock spans of `snap`. Spans on one track come
    /// from one thread and nest; a span's self time is its duration
    /// minus the time its direct children cover.
    pub fn fold(&mut self, snap: &TelemetrySnapshot) {
        self.dropped_spans += snap.dropped_spans;
        type Key = (&'static str, &'static str);
        let mut by_track: BTreeMap<u32, Vec<(u64, u64, Key)>> = BTreeMap::new();
        for s in &snap.spans {
            if s.lane == Lane::Wall && !s.instant {
                by_track
                    .entry(s.track)
                    .or_default()
                    .push((s.start_us, s.dur_us, (s.cat, s.name)));
            }
        }
        for mut spans in by_track.into_values() {
            // Parents first: earlier start, then longer duration.
            spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
            // Open spans: (end, duration, children's time, key).
            let mut stack: Vec<(u64, u64, u64, Key)> = Vec::new();
            for (start, dur, key) in spans {
                while stack.last().is_some_and(|top| top.0 <= start) {
                    let done = stack.pop().expect("checked non-empty");
                    self.close(done);
                }
                if let Some(parent) = stack.last_mut() {
                    parent.2 += dur;
                }
                stack.push((start + dur, dur, 0, key));
            }
            while let Some(done) = stack.pop() {
                self.close(done);
            }
        }
    }

    fn close(&mut self, (_, dur, children, key): (u64, u64, u64, (&'static str, &'static str))) {
        let f = self.by_name.entry(key).or_default();
        f.count += 1;
        f.total_us += dur;
        f.self_us += dur.saturating_sub(children);
    }

    fn get(&self, key: &str) -> Option<&Fold> {
        let (cat, name) = key.split_once('/')?;
        self.by_name
            .iter()
            .find(|(k, _)| k.0 == cat && k.1 == name)
            .map(|(_, f)| f)
    }

    /// Inclusive milliseconds of `key` (`category/name`).
    pub fn total_ms(&self, key: &str) -> f64 {
        self.get(key).map_or(0.0, |f| f.total_us as f64 / 1e3)
    }

    /// Number of `key` spans.
    pub fn count(&self, key: &str) -> u64 {
        self.get(key).map_or(0, |f| f.count)
    }

    /// `{"category/name": inclusive ms, ...}`.
    pub fn totals_json(&self) -> String {
        let cells: Vec<String> = self
            .by_name
            .iter()
            .map(|((cat, name), f)| format!("\"{cat}/{name}\":{}", f.total_us as f64 / 1e3))
            .collect();
        format!("{{{}}}", cells.join(","))
    }

    /// Aligned self-time table, largest first.
    pub fn table(&self) -> String {
        let mut rows: Vec<_> = self.by_name.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_us));
        let mut out = format!(
            "{:<34} {:>10} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms"
        );
        for ((cat, name), f) in rows {
            out += &format!(
                "{:<34} {:>10} {:>12.3} {:>12.3}\n",
                format!("{cat}/{name}"),
                f.count,
                f.total_us as f64 / 1e3,
                f.self_us as f64 / 1e3
            );
        }
        out
    }
}
