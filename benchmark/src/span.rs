//! Spans recorded by the traced run, kept in memory and written out as a
//! Chrome trace when the run ends.
//!
//! Spans wrap the benchmark's calls into each layer's public functions;
//! nothing inside the program is instrumented. A span's name is
//! `layer.what`, and a layer's self time is the time its spans cover minus
//! the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A span's id; 0 means "no span" (the root, or tracing off).
pub type SpanId = u64;

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: SpanId,
    job: u64,
    name: &'static str,
    lane: u64,
    start_us: f64,
    end_us: f64,
}

/// The span recorder. Disabled, a span costs one branch.
pub struct Tracer {
    t0: Instant,
    spans: Option<Mutex<Vec<Span>>>,
    next_id: AtomicU64,
}

static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// One Chrome-trace lane per thread that records spans.
    static LANE: u64 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
            next_id: AtomicU64::new(1),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`, tagged with a
    /// service job number (0 for none). `f` gets the new span's id so it
    /// can open child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        job: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let Some(spans) = &self.spans else {
            return f(0);
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_us = self.t0.elapsed().as_secs_f64() * 1e6;
        let out = f(id);
        let end_us = self.t0.elapsed().as_secs_f64() * 1e6;
        let lane = LANE.with(|lane| *lane);
        let span = Span {
            id,
            parent,
            job,
            name,
            lane,
            start_us,
            end_us,
        };
        spans.lock().expect("span list poisoned").push(span);
        out
    }

    fn snapshot(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|spans| spans.lock().expect("span list poisoned").clone())
            .unwrap_or_default()
    }

    /// Seconds of self time per layer (the `layer` prefix of span names).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.snapshot();
        let mut children: BTreeMap<SpanId, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &spans {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
        let mut by_layer = BTreeMap::new();
        for s in &spans {
            let mut covered = 0.0;
            let mut reach = s.start_us;
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_us));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_insert(0.0) += (s.end_us - s.start_us - covered) / 1e6;
        }
        by_layer
    }

    /// The Chrome trace-event document: one complete event per span, the
    /// span and parent ids and the job number in `args`, and the per-layer
    /// self times under `otherData`.
    pub fn chrome_json(&self, workload: &str, seed: u64) -> String {
        let mut events = Vec::new();
        for s in self.snapshot() {
            events.push(format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \
                 \"parent\": {}, \"job\": {}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_us,
                s.end_us - s.start_us,
                s.lane,
                s.id,
                s.parent,
                s.job
            ));
        }
        let mut self_time = String::new();
        for (i, (layer, secs)) in self.self_time_by_layer().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(self_time, "{sep}\"{layer}\": {secs}");
        }
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"otherData\": {{\"workload\": \"{workload}\", \
             \"seed\": {seed}, \"self_time_s\": {{{self_time}}}}}, \"traceEvents\": [\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a.b", 0, 0, |id| id), 0);
        assert!(t.self_time_by_layer().is_empty());
    }

    #[test]
    fn self_time_excludes_child_spans() {
        let t = Tracer::new(true);
        t.span("outer.x", 0, 7, |id| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            t.span("inner.y", id, 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(30))
            });
        });
        let by_layer = t.self_time_by_layer();
        assert!(by_layer["inner"] >= 0.03);
        assert!(
            by_layer["outer"] >= 0.02 && by_layer["outer"] < 0.03,
            "{by_layer:?}"
        );
        let doc = ce_bench::json::Json::parse(&t.chrome_json("w", 1)).unwrap();
        assert_eq!(
            doc.at("traceEvents")
                .and_then(|e| e.as_arr())
                .map(<[_]>::len),
            Some(2)
        );
    }
}
