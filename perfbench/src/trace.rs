//! The benchmark's own spans, recorded around each call into a layer.
//!
//! A span has a name, a start, an end, the span that caused it and a
//! request id (0 outside served jobs). Spans are kept in memory while
//! recording is on and written out as JSONL when the run ends. With
//! recording off, [`span`] costs one atomic load.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `atpg.run`.
    pub name: String,
    /// Start time.
    pub start: u64,
    /// End time (0 while the span is open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id shared by every span of one served job.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn recording on or off.
pub fn set_recording(on: bool) {
    EPOCH.get_or_init(Instant::now);
    RECORDING.store(on, Ordering::Relaxed);
}

/// An open span; closes when dropped.
#[must_use = "a span closes when its guard drops"]
pub struct Guard(Option<usize>);

impl Guard {
    /// Index of this span, to parent spans opened on other threads.
    pub fn id(&self) -> Option<usize> {
        self.0
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        let t = now();
        if let Ok(mut spans) = SPANS.lock() {
            spans[id].end = t;
        }
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&id) {
                s.pop();
            }
        });
    }
}

/// Open a span under the innermost span open on this thread.
pub fn span(name: &str) -> Guard {
    let parent = OPEN.with(|s| s.borrow().last().copied());
    open(name, parent, 0)
}

/// Open a span under `parent` (a span of another thread) for request
/// `req`.
pub fn span_under(name: &str, parent: Option<usize>, req: u64) -> Guard {
    open(name, parent, req)
}

fn open(name: &str, parent: Option<usize>, req: u64) -> Guard {
    if !RECORDING.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let start = now();
    let id = {
        let mut spans = SPANS
            .lock()
            .expect("span store poisoned by a panicking span");
        spans.push(Span {
            name: name.to_owned(),
            start,
            end: 0,
            parent,
            req,
        });
        spans.len() - 1
    };
    OPEN.with(|s| s.borrow_mut().push(id));
    Guard(Some(id))
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span store").clone()
}

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Nanoseconds of span `id` covered by its direct children.
pub fn child_cover(spans: &[Span], id: usize) -> u64 {
    let (s, e) = (spans[id].start, spans[id].end);
    union_len(
        spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start.max(s), c.end.min(e).max(c.start.max(s))))
            .collect(),
    )
}

/// Self time of span `id`: its duration minus what its children cover.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    spans[id].dur() - child_cover(spans, id)
}

/// Summed duration of every span named `name`, in milliseconds.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e6)
        .sum()
}

/// Median duration of the spans named `name`, in milliseconds (0 when
/// there are none).
pub fn median_ms(spans: &[Span], name: &str) -> f64 {
    let ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e6)
        .collect();
    crate::stats::median(&ms).unwrap_or(0.0)
}

/// Share of the summed duration of the spans named `pass` that their
/// direct children cover.
pub fn covered_frac(spans: &[Span], pass: &str) -> f64 {
    let (mut covered, mut total) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == pass) {
        covered += child_cover(spans, i);
        total += s.dur();
    }
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

/// Write `spans` as JSONL to `path`.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let mut o = rescue_obs::json::JsonObj::new();
        o.u64("id", i as u64)
            .str("name", &s.name)
            .u64("start_ns", s.start)
            .u64("end_ns", s.end)
            .u64("self_ns", self_ns(spans, i))
            .i64("parent", s.parent.map_or(-1, |p| p as i64))
            .u64("req", s.req);
        writeln!(out, "{}", o.finish())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp("pass", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("b", 30, 50, Some(0)),
            sp("c", 80, 90, Some(0)),
            sp("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(child_cover(&spans, 0), 50);
        assert_eq!(self_ns(&spans, 0), 50);
        assert_eq!(self_ns(&spans, 1), 22);
        assert!((covered_frac(&spans, "pass") - 0.5).abs() < 1e-12);
        assert_eq!(total_ms(&spans, "a"), 30.0 / 1e6);
        assert_eq!(median_ms(&spans, "b"), 20.0 / 1e6);
        assert_eq!(median_ms(&spans, "none"), 0.0);
    }
}
