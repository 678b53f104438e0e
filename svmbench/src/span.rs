//! svmbench's own span recorder: one span around each call into a layer,
//! stamped on both clocks, kept in memory and written out once at exit.
//!
//! Spans are recorded from svmbench's files only — around `Cluster::new`,
//! thread spawn, the install calls, the application and the join. Spans
//! inside the program are a later change. A run records a few dozen of
//! them, so the recorder is always on; what the *traced* run switches on
//! is the program's per-core event rings, and those are what
//! `instr.overhead_pct` prices.

use crate::json::Json;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// Host nanoseconds since the recorder's epoch.
    pub host: (u64, u64),
    /// Simulated cycles on the recording core (0, 0 on the host's main
    /// thread, which has no simulated clock).
    pub sim: (u64, u64),
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host.1.saturating_sub(self.host.0)
    }

    pub fn host_ms(&self) -> f64 {
        self.host_ns() as f64 / 1e6
    }

    pub fn host_s(&self) -> f64 {
        self.host_ns() as f64 / 1e9
    }
}

/// Collects the spans of one process. Shared by reference between the main
/// thread and the simulated core that leads a run.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// `epoch` is the instant every host stamp counts from: the process's
    /// first instruction in `main`, so that set-up time includes whatever
    /// ran before the first span.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Open a span that started at the epoch.
    pub fn open_at_epoch(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        self.push(name, parent, 0, 0)
    }

    pub fn open(&self, name: &str, parent: Option<SpanId>, sim_now: u64) -> SpanId {
        self.push(name, parent, self.now(), sim_now)
    }

    fn push(&self, name: &str, parent: Option<SpanId>, host: u64, sim: u64) -> SpanId {
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_string(),
            host: (host, host),
            sim: (sim, sim),
            parent,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: SpanId, sim_now: u64) {
        let now = self.now();
        let mut spans = self.lock();
        spans[id].host.1 = now;
        spans[id].sim.1 = sim_now;
    }

    /// Close `prev` and open `name` under the same parent at one shared
    /// instant, so consecutive phases leave no gap between them.
    pub fn next(&self, prev: SpanId, name: &str, sim_now: u64) -> SpanId {
        let now = self.now();
        let mut spans = self.lock();
        spans[prev].host.1 = now;
        spans[prev].sim.1 = sim_now;
        let parent = spans[prev].parent;
        spans.push(Span {
            name: name.to_string(),
            host: (now, now),
            sim: (sim_now, sim_now),
            parent,
        });
        spans.len() - 1
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }
}

/// A span's duration minus the part of its interval that its child spans
/// cover. Children may overlap each other and may stick out of the parent;
/// only the union of their intervals, clipped to the parent, is removed.
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let (lo, hi) = spans[id].host;
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.host.0.clamp(lo, hi), s.host.1.clamp(lo, hi)))
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (hi - lo).saturating_sub(covered)
}

/// Total and self host time per span name, widest first.
pub fn self_time_table(spans: &[Span]) -> String {
    let mut rows: Vec<(String, usize, u64, u64)> = Vec::new();
    for (id, s) in spans.iter().enumerate() {
        let own = self_time_ns(spans, id);
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.host_ns();
                r.3 += own;
            }
            None => rows.push((s.name.clone(), 1, s.host_ns(), own)),
        }
    }
    rows.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
    let width = rows.iter().map(|r| r.0.len()).max().unwrap_or(4).max(4);
    let mut out = format!(
        "{:<width$}  {:>5}  {:>12}  {:>12}\n",
        "span", "count", "total ms", "self ms"
    );
    for (name, count, total, own) in rows {
        let _ = writeln!(
            out,
            "{name:<width$}  {count:>5}  {:>12.3}  {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    out
}

/// The spans of one process for a Chrome trace: `pid` is the workload id
/// shared by every span of a run, `tid` the process within it (shown under
/// the name `lane`), `offset_ns` where this process's epoch sits on the
/// driver's clock.
pub fn chrome_events(spans: &[Span], pid: u64, tid: u64, lane: &str, offset_ns: u64) -> Vec<Json> {
    let lane_name = Json::obj([
        ("name", Json::str("thread_name")),
        ("ph", Json::str("M")),
        ("pid", Json::Num(pid as f64)),
        ("tid", Json::Num(tid as f64)),
        ("args", Json::obj([("name", Json::str(lane))])),
    ]);
    let slices = spans.iter().enumerate().map(|(id, s)| {
        Json::obj([
            ("name", Json::str(&s.name)),
            ("ph", Json::str("X")),
            ("pid", Json::Num(pid as f64)),
            ("tid", Json::Num(tid as f64)),
            ("ts", Json::Num((offset_ns + s.host.0) as f64 / 1e3)),
            ("dur", Json::Num(s.host_ns() as f64 / 1e3)),
            (
                "args",
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("sim_start_cyc", Json::Num(s.sim.0 as f64)),
                    ("sim_end_cyc", Json::Num(s.sim.1 as f64)),
                    ("self_us", Json::Num(self_time_ns(spans, id) as f64 / 1e3)),
                ]),
            ),
        ])
    });
    std::iter::once(lane_name).chain(slices).collect()
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::str(&s.name),
                    Json::Num(s.host.0 as f64),
                    Json::Num(s.host.1 as f64),
                    Json::Num(s.sim.0 as f64),
                    Json::Num(s.sim.1 as f64),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ])
            })
            .collect(),
    )
}

pub fn from_json(v: &Json) -> Option<Vec<Span>> {
    v.as_arr()?
        .iter()
        .map(|row| {
            let r = row.as_arr()?;
            Some(Span {
                name: r.first()?.as_str()?.to_string(),
                host: (r.get(1)?.as_u64()?, r.get(2)?.as_u64()?),
                sim: (r.get(3)?.as_u64()?, r.get(4)?.as_u64()?),
                parent: match r.get(5)? {
                    Json::Null => None,
                    p => Some(p.as_u64()? as usize),
                },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, host: (u64, u64), parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            host,
            sim: (0, 0),
            parent,
        }
    }

    #[test]
    fn self_time_removes_the_union_of_children() {
        let spans = vec![
            span("root", (100, 200), None),
            span("a", (110, 130), Some(0)),
            // Overlaps `a`: the shared 10 ns must be removed once.
            span("b", (120, 150), Some(0)),
            // Sticks out of the parent: only 190..200 counts.
            span("c", (190, 260), Some(0)),
            // A grandchild takes nothing from the root directly.
            span("a1", (110, 129), Some(1)),
            // Somebody else's child.
            span("other", (0, 1000), None),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans, 1), 20 - 19);
        assert_eq!(self_time_ns(&spans, 2), 30);
        assert_eq!(self_time_ns(&spans, 5), 1000);
    }

    #[test]
    fn self_time_of_a_fully_covered_span_is_zero() {
        let spans = vec![
            span("root", (0, 10), None),
            span("x", (0, 6), Some(0)),
            span("y", (6, 10), Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 0);
    }

    #[test]
    fn recorder_nests_and_chains() {
        let rec = Recorder::new(Instant::now());
        let root = rec.open_at_epoch("root", None);
        let a = rec.open("a", Some(root), 5);
        let b = rec.next(a, "b", 9);
        rec.close(b, 12);
        rec.close(root, 0);
        let spans = rec.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].host.0, 0);
        assert_eq!(spans[a].sim, (5, 9));
        assert_eq!(spans[b].sim, (9, 12));
        assert_eq!(spans[b].parent, Some(root));
        // Chained phases share their boundary instant.
        assert_eq!(spans[a].host.1, spans[b].host.0);
        assert!(spans[root].host.1 >= spans[b].host.1);
        assert_eq!(from_json(&to_json(&spans)).unwrap(), spans);
        assert!(self_time_table(&spans).contains("root"));
    }
}
