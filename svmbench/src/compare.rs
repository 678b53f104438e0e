//! `svmbench --compare A.json B.json`: hold two result files of the suite
//! against the benchmark's own bounds, one row per workload and
//! end-to-end metric.

use crate::json::Json;
use crate::spec::{self, Better, Clock, Source};
use crate::stats::Summary;
use std::fmt::Write as _;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The spread of either side is wider than the bound: the two runs
    /// cannot be told apart at this resolution, which is not "unchanged".
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// B against A for one metric. A simulated metric repeats exactly, so any
/// difference is a verdict; a host metric gets its bound.
pub fn judge(metric: &spec::EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let allowed = match metric.clock {
        Clock::Sim => 0.0,
        Clock::Host => {
            let allowed = (metric.bound * a.median.abs()).max(metric.floor);
            if a.max - a.min > allowed || b.max - b.min > allowed {
                return Verdict::Unresolved;
            }
            allowed
        }
    };
    let worse_by = match metric.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    if worse_by > allowed {
        Verdict::Worse
    } else if -worse_by > allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn summary_of(v: &Json) -> Option<Summary> {
    Some(Summary {
        median: v.get("median")?.as_f64()?,
        min: v.get("min")?.as_f64()?,
        max: v.get("max")?.as_f64()?,
        n: v.get("n")?.as_u64()? as usize,
    })
}

/// The comparison as a table, and whether B is acceptable: no row worse
/// or unresolved, no count different, no failed operation on either side.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "{:<18} {:<20} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "B vs A"
    );
    let per_layer = spec::per_layer();
    let mut rows = 0;
    for w in spec::WORKLOADS {
        let side = |doc: &Json| doc.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(wa), Some(wb)) = (side(a), side(b)) else {
            continue;
        };
        for (label, doc) in [("A", &wa), ("B", &wb)] {
            let failed = doc.get("failed").and_then(Json::as_u64).unwrap_or(1);
            if failed != 0 {
                ok = false;
                let _ = writeln!(out, "{:<18} {label} has {failed} failed operations", w.name);
            }
        }
        for metric in &spec::END_TO_END {
            let get = |doc: &Json| doc.get("end_to_end")?.get(metric.name).and_then(summary_of);
            let (Some(sa), Some(sb)) = (get(&wa), get(&wb)) else {
                continue;
            };
            let verdict = judge(metric, &sa, &sb);
            ok &= matches!(verdict, Verdict::Same | Verdict::Better);
            rows += 1;
            let _ = writeln!(
                out,
                "{:<18} {:<20} {:>14.6} {:>14.6} {:>+8.2}%  {}",
                w.name,
                metric.name,
                sa.median,
                sb.median,
                100.0 * (sb.median - sa.median) / sa.median,
                verdict.name()
            );
        }
        // Counts and the simulated product repeat exactly or something
        // changed the simulation.
        let layer = |doc: &Json| doc.get("per_layer").map(Json::num_map).unwrap_or_default();
        let (la, lb) = (layer(&wa), layer(&wb));
        for m in per_layer
            .iter()
            .filter(|m| matches!(m.source, Source::Count | Source::Product))
        {
            if let (Some(x), Some(y)) = (la.get(m.name), lb.get(m.name)) {
                rows += 1;
                if x != y {
                    ok = false;
                    let _ = writeln!(
                        out,
                        "{:<18} {:<20} {x:>14} {y:>14}  differs",
                        w.name, m.name
                    );
                }
            }
        }
    }
    if rows == 0 {
        return Err("the two files share no workload and metric".into());
    }
    let _ = writeln!(
        out,
        "{rows} comparisons: {}",
        if ok {
            "B is within the bounds of A"
        } else {
            "B is NOT within the bounds of A"
        }
    );
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, min: f64, max: f64) -> Summary {
        Summary {
            median,
            min,
            max,
            n: 5,
        }
    }

    fn metric(name: &str) -> &'static spec::EndToEnd {
        spec::END_TO_END.iter().find(|e| e.name == name).unwrap()
    }

    #[test]
    fn host_metrics_get_their_bound_and_their_spread_check() {
        let wall = metric("host_wall_s");
        let tight = |m: f64| s(m, m * 0.99, m * 1.01);
        assert_eq!(judge(wall, &tight(1.0), &tight(1.05)), Verdict::Same);
        assert_eq!(judge(wall, &tight(1.0), &tight(1.2)), Verdict::Worse);
        assert_eq!(judge(wall, &tight(1.0), &tight(0.8)), Verdict::Better);
        // Bimodal: 1.17 s and 2.0 s in one set, as unpinned lazy Laplace.
        assert_eq!(
            judge(wall, &s(1.2, 1.17, 2.0), &tight(1.2)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn small_setup_times_get_an_absolute_floor() {
        let setup = metric("setup_s");
        assert_eq!(
            judge(setup, &s(0.010, 0.009, 0.012), &s(0.018, 0.016, 0.020)),
            Verdict::Same
        );
        assert_eq!(
            judge(setup, &s(0.400, 0.39, 0.41), &s(0.600, 0.59, 0.61)),
            Verdict::Worse
        );
    }

    #[test]
    fn simulated_metrics_are_exact() {
        let sim = metric("sim_mcyc");
        let exact = |m: f64| s(m, m, m);
        assert_eq!(judge(sim, &exact(24.688), &exact(24.688)), Verdict::Same);
        assert_eq!(judge(sim, &exact(24.688), &exact(24.689)), Verdict::Worse);
        assert_eq!(judge(sim, &exact(24.688), &exact(24.687)), Verdict::Better);
    }

    #[test]
    fn whole_files() {
        let doc = |wall: f64, hits: f64| {
            let e2e = Json::obj(spec::END_TO_END.iter().map(|e| {
                let v = if e.name == "host_wall_s" { wall } else { 1.0 };
                let row = [("median", v), ("min", v), ("max", v), ("n", 3.0)];
                (e.name, Json::obj(row.map(|(k, v)| (k, Json::Num(v)))))
            }));
            let w = Json::obj([
                ("failed", Json::Num(0.0)),
                ("end_to_end", e2e),
                ("per_layer", Json::obj([("hw.l1_hits", Json::Num(hits))])),
            ]);
            Json::obj([("workloads", Json::obj([("kv_lrc_512", w)]))])
        };
        let (text, ok) = compare(&doc(3.0, 10.0), &doc(3.1, 10.0)).unwrap();
        assert!(ok, "{text}");
        let (text, ok) = compare(&doc(3.0, 10.0), &doc(3.6, 10.0)).unwrap();
        assert!(!ok && text.contains("worse"), "{text}");
        let (text, ok) = compare(&doc(3.0, 10.0), &doc(3.0, 11.0)).unwrap();
        assert!(!ok && text.contains("differs"), "{text}");
        assert!(compare(&Json::obj([("workloads", Json::Null)]), &doc(1.0, 1.0)).is_err());
    }
}
