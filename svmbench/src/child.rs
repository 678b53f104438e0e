//! What runs inside a fresh child process: one rep of one workload, or
//! the probe set. The child pins itself, measures, and prints one line of
//! JSON for the driver.

use crate::json::Json;
use crate::probes;
use crate::span::{self, Recorder, Span};
use crate::sys;
use crate::workloads::{self, Shape};
use std::collections::BTreeMap;
use std::time::Instant;

/// What the program's event rings and the checker say about a traced rep.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct TraceStats {
    pub events: u64,
    pub dropped: u64,
    pub findings: u64,
    pub check_s: f64,
}

/// One rep of one workload, as the driver reads it back.
#[derive(Clone, Debug, PartialEq)]
pub struct Rep {
    pub pinned: bool,
    pub setup_s: f64,
    pub host_wall_s: f64,
    pub rss_mib: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub sim_cycles: u64,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub counts: BTreeMap<String, u64>,
    pub product: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
    pub trace: Option<TraceStats>,
}

/// Pin as the driver asked (`-` means: run unpinned).
fn pin(arg: &str) -> bool {
    arg.parse().is_ok_and(sys::pin_to)
}

/// `svmbench --child run <workload> <seed> <traced> <cpu|->`
pub fn run_rep(epoch: Instant, args: &[String]) -> Result<Json, String> {
    let [workload, seed, traced, cpu] = args else {
        return Err("--child run needs <workload> <seed> <traced> <cpu|->".into());
    };
    let pinned = pin(cpu);
    let shape = Shape::full(workload).ok_or_else(|| format!("no workload {workload:?}"))?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    let traced = traced == "1";

    let rec = Recorder::new(epoch);
    let root = rec.open_at_epoch("rep", None);
    let out = workloads::run(&shape, seed, traced, &rec, root);
    // Resource use of the run itself, before the checker adds its own.
    let usage = sys::usage();

    let trace = traced.then(|| {
        let id = rec.open("check.rings", Some(root), 0);
        let t0 = Instant::now();
        let report = scc_checker::check_rings(out.rings.iter().map(|(c, r)| (*c, r)));
        let check_s = t0.elapsed().as_secs_f64();
        rec.close(id, 0);
        if !report.findings.is_empty() {
            eprintln!("svmbench: {workload}: {}", report.render_text());
        }
        TraceStats {
            events: out.rings.iter().map(|(_, r)| r.len() as u64).sum(),
            dropped: out.rings.iter().map(|(_, r)| r.overwritten()).sum(),
            findings: report.findings.len() as u64,
            check_s,
        }
    });
    rec.close(root, 0);
    let spans = rec.take();
    let host_s = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .map_or(f64::NAN, Span::host_s)
    };
    let rep = Rep {
        pinned,
        setup_s: host_s("setup"),
        host_wall_s: host_s("run"),
        rss_mib: usage.rss_mib,
        user_s: usage.user_s,
        sys_s: usage.sys_s,
        sim_cycles: out.sim_cycles,
        attempted: out.attempted,
        failed: out.failed,
        notes: out.notes,
        counts: out.counts.iter().map(|(k, v)| (k.to_string(), v)).collect(),
        product: out
            .product
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        spans,
        trace,
    };
    Ok(rep.to_json())
}

/// `svmbench --child probes <cpu|->`
pub fn run_probes(epoch: Instant, args: &[String]) -> Result<Json, String> {
    let [cpu] = args else {
        return Err("--child probes needs <cpu|->".into());
    };
    let pinned = pin(cpu);
    let rec = Recorder::new(epoch);
    let root = rec.open_at_epoch("probes", None);
    let values = probes::run_all(probes::Size::FULL, &rec, root);
    rec.close(root, 0);
    Ok(Json::obj([
        ("pinned", Json::Bool(pinned)),
        (
            "values",
            Json::obj(values.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        ("spans", span::to_json(&rec.take())),
    ]))
}

impl Rep {
    pub fn to_json(&self) -> Json {
        let nums = |m: &BTreeMap<String, f64>| {
            Json::obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))))
        };
        Json::obj([
            ("pinned", Json::Bool(self.pinned)),
            ("setup_s", Json::Num(self.setup_s)),
            ("host_wall_s", Json::Num(self.host_wall_s)),
            ("rss_mib", Json::Num(self.rss_mib)),
            ("user_s", Json::Num(self.user_s)),
            ("sys_s", Json::Num(self.sys_s)),
            ("sim_cycles", Json::Num(self.sim_cycles as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            (
                "counts",
                Json::obj(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64))),
                ),
            ),
            ("product", nums(&self.product)),
            ("spans", span::to_json(&self.spans)),
            (
                "trace",
                self.trace.map_or(Json::Null, |t| {
                    Json::obj([
                        ("events", Json::Num(t.events as f64)),
                        ("dropped", Json::Num(t.dropped as f64)),
                        ("findings", Json::Num(t.findings as f64)),
                        ("check_s", Json::Num(t.check_s)),
                    ])
                }),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Rep> {
        let f = |k: &str| v.get(k)?.as_f64();
        let u = |k: &str| v.get(k)?.as_u64();
        let trace = match v.get("trace")? {
            Json::Null => None,
            t => Some(TraceStats {
                events: t.get("events")?.as_u64()?,
                dropped: t.get("dropped")?.as_u64()?,
                findings: t.get("findings")?.as_u64()?,
                check_s: t.get("check_s")?.as_f64()?,
            }),
        };
        Some(Rep {
            pinned: v.get("pinned")?.as_bool()?,
            setup_s: f("setup_s")?,
            host_wall_s: f("host_wall_s")?,
            rss_mib: f("rss_mib")?,
            user_s: f("user_s")?,
            sys_s: f("sys_s")?,
            sim_cycles: u("sim_cycles")?,
            attempted: u("attempted")?,
            failed: u("failed")?,
            notes: v
                .get("notes")?
                .as_arr()?
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
            counts: v
                .get("counts")?
                .as_obj()?
                .iter()
                .map(|(k, n)| Some((k.clone(), n.as_u64()?)))
                .collect::<Option<_>>()?,
            product: v.get("product")?.num_map(),
            spans: span::from_json(v.get("spans")?)?,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rep_survives_the_pipe() {
        let rep = Rep {
            pinned: true,
            setup_s: 0.012_345_678_9,
            host_wall_s: 1.75,
            rss_mib: 120.5,
            user_s: 1.5,
            sys_s: 0.25,
            sim_cycles: 24_688_560,
            attempted: 1,
            failed: 0,
            notes: vec!["a \"note\"".into()],
            counts: [("hw.l1_hits".to_string(), 1_234_567_890_123)].into(),
            product: [("kv.sim_p50_kcyc".to_string(), 6.144)].into(),
            spans: vec![Span {
                name: "rep".into(),
                host: (0, 17),
                sim: (3, 4),
                parent: None,
            }],
            trace: Some(TraceStats {
                events: 10,
                dropped: 0,
                findings: 0,
                check_s: 0.5,
            }),
        };
        let line = rep.to_json().compact();
        assert!(!line.contains('\n'));
        assert_eq!(
            Rep::from_json(&crate::json::parse(&line).unwrap()),
            Some(rep)
        );
    }
}
