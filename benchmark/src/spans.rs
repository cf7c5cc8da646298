//! The benchmark's own span recorder. Spans wrap the public calls into
//! each crate, from outside; nothing is recorded inside the program.
//! They stay in memory until the run ends, then go out as a chrome
//! trace, and a layer's self time is its spans minus their children.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Id of the span that was open on this thread when this one began;
    /// 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// The operation (rep, pass, submission) this span belongs to.
    pub op: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    done: Mutex<Vec<Span>>,
}

thread_local! {
    /// `(thread number, ids of the spans open on this thread)`.
    static OPEN: RefCell<(u64, Vec<u64>)> = const { RefCell::new((0, Vec::new())) };
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            next_thread: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    // Relaxed: the flag publishes no data. It is flipped between reps by
    // the thread that records, or before client threads are spawned.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it closes when the guard drops. A no-op (one relaxed
    /// load) while the recorder is off.
    pub fn span(&self, name: &'static str, op: u64) -> SpanGuard<'_> {
        if !self.on.load(Ordering::Relaxed) {
            return SpanGuard {
                rec: self,
                open: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (thread, parent) = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if o.0 == 0 {
                o.0 = self.next_thread.fetch_add(1, Ordering::Relaxed);
            }
            let parent = o.1.last().copied().unwrap_or(0);
            o.1.push(id);
            (o.0, parent)
        });
        let start_ns = self.now_ns();
        SpanGuard {
            rec: self,
            open: Some(Span {
                id,
                parent,
                name,
                op,
                thread,
                start_ns,
                end_ns: start_ns,
            }),
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .done
                .lock()
                .expect("a span guard panicked while recording"),
        )
    }
}

pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    open: Option<Span>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(mut span) = self.open.take() else {
            return;
        };
        span.end_ns = self.rec.now_ns();
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if o.1.last() == Some(&span.id) {
                o.1.pop();
            }
        });
        // A poisoned lock means a recording thread already panicked; the
        // run is failing anyway, and Drop must not panic on top of it.
        if let Ok(mut done) = self.rec.done.lock() {
            done.push(span);
        }
    }
}

/// Per span name: `(calls, total ns, self ns)`, self being the span's
/// duration minus the part its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_insert(0) += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Self time summed by layer, the layer being the span name up to its
/// first dot (`core.parse` -> `core`).
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (name, (_, _, self_ns)) in self_times(spans) {
        *out.entry(name.split('.').next().unwrap_or(name))
            .or_insert(0) += self_ns;
    }
    out
}

/// Does every child lie inside its parent, on the parent's thread?
pub fn nests(spans: &[Span]) -> bool {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    spans.iter().filter(|s| s.parent != 0).all(|s| {
        by_id.get(&s.parent).is_some_and(|p| {
            p.thread == s.thread && p.start_ns <= s.start_ns && s.end_ns <= p.end_ns
        })
    })
}

/// chrome://tracing document: one complete (`X`) event per span, times
/// in microseconds, the benchmark's threads as `tid`s of process 1.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("name", Json::s(s.name)),
                ("cat", Json::s(s.name.split('.').next().unwrap_or(s.name))),
                ("ph", Json::s("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.thread as f64)),
                (
                    "args",
                    Json::obj(vec![
                        ("id", Json::Num(s.id as f64)),
                        ("parent", Json::Num(s.parent as f64)),
                        ("op", Json::Num(s.op as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::s("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_subtracts_them() {
        let rec = Recorder::new();
        rec.set_on(true);
        {
            let _op = rec.span("op.solve", 7);
            {
                let _p = rec.span("core.parse", 7);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let _r = rec.span("exec.run", 7);
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        let spans = rec.take();
        assert_eq!(spans.len(), 3);
        assert!(nests(&spans));
        let root = spans.iter().find(|s| s.name == "op.solve").unwrap();
        assert_eq!(root.parent, 0);
        assert!(spans
            .iter()
            .filter(|s| s.name != "op.solve")
            .all(|s| s.parent == root.id && s.op == 7));
        let st = self_times(&spans);
        let (calls, total, self_ns) = st["op.solve"];
        assert_eq!(calls, 1);
        assert_eq!(self_ns, total - st["core.parse"].1 - st["exec.run"].1);
        assert!(st["core.parse"].2 >= 2_000_000);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["core"], st["core.parse"].2);
    }

    #[test]
    fn a_span_escaping_its_parent_is_caught() {
        let mk = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: "x.y",
            op: 0,
            thread: 1,
            start_ns,
            end_ns,
        };
        assert!(nests(&[mk(1, 0, 0, 10), mk(2, 1, 2, 9)]));
        assert!(!nests(&[mk(1, 0, 0, 10), mk(2, 1, 2, 11)]));
        assert!(!nests(&[mk(2, 1, 2, 9)]));
    }

    #[test]
    fn off_records_nothing_and_the_trace_loads() {
        let rec = Recorder::new();
        drop(rec.span("core.parse", 1));
        assert!(rec.take().is_empty());
        rec.set_on(true);
        drop(rec.span("core.parse", 1));
        let doc = chrome_trace(&rec.take());
        let back = Json::parse(&doc.to_line()).unwrap();
        assert_eq!(back.get("traceEvents").unwrap().as_arr().unwrap().len(), 1);
    }
}
