//! The single-threaded driver: run each workload in fresh child
//! processes pinned to one CPU, hold every rep to the determinism oracle,
//! and turn the reps into named metrics.

use crate::child::Rep;
use crate::json::{self, Json};
use crate::span::{self, Span};
use crate::spec::{self, Source};
use crate::stats::{highest_supported_tail, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Environment switches of the program under test that would silently
/// change what a workload runs. The configurations are explicit; the
/// child must not inherit these.
const SCRUBBED_ENV: [&str; 4] = [
    "SCC_TOPOLOGY",
    "SCC_COLL",
    "SCC_PARK_WATCHDOG_MS",
    "SCC_PAR_HOST_THREADS",
];

/// How long to keep starting reps.
#[derive(Copy, Clone, Debug)]
pub enum Budget {
    Reps(usize),
    Seconds(f64),
}

/// The CPU the children are pinned to: the last one this process may use
/// (the first tends to take the host's interrupts). `None` when the host
/// cannot say.
pub fn pick_cpu() -> Option<usize> {
    crate::sys::allowed_cpus().last().copied()
}

/// This binary: the one every child of an untraced run is.
pub fn own_binary() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot find my own binary: {e}"))
}

fn spawn_child(exe: &Path, args: &[String]) -> Result<(Json, u64), String> {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let started_ns = EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64;
    let mut cmd = Command::new(exe);
    cmd.arg("--child").args(args);
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    // The child's last line of standard output is its result; its
    // standard error (panics, checker findings) passes through.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} ended with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("child printed nothing")?;
    let v = json::parse(line).map_err(|e| format!("child {args:?} printed bad JSON: {e}"))?;
    Ok((v, started_ns))
}

fn cpu_arg(cpu: Option<usize>) -> String {
    cpu.map_or("-".to_string(), |c| c.to_string())
}

/// One rep in a fresh child. The second value is when the child started
/// on the driver's clock, for laying processes out in the trace.
fn run_rep(
    exe: &Path,
    workload: &str,
    seed: u64,
    traced: bool,
    cpu: Option<usize>,
) -> Result<(Rep, u64), String> {
    let args = [
        "run".to_string(),
        workload.to_string(),
        seed.to_string(),
        u8::from(traced).to_string(),
        cpu_arg(cpu),
    ];
    let (v, at) = spawn_child(exe, &args)?;
    let rep = Rep::from_json(&v).ok_or_else(|| format!("child {args:?}: incomplete result"))?;
    Ok((rep, at))
}

/// A workload's measured result.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// All children were pinned as asked.
    pub pinned: bool,
    /// End-to-end metrics over the untraced reps (empty for a traced run).
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// Per-layer metrics (empty for an untraced run).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Where the traced run's Chrome trace went.
    pub trace_file: Option<String>,
}

fn end_to_end_of(rep: &Rep) -> [f64; 5] {
    [
        rep.setup_s,
        rep.host_wall_s,
        rep.host_wall_s * 1e9 / rep.sim_cycles.max(1) as f64,
        rep.rss_mib,
        rep.sim_cycles as f64 / 1e6,
    ]
}

/// Everything simulated must repeat exactly: it is the same program on the
/// same inputs, and only the host clock may differ between two reps.
fn same_simulation(a: &Rep, b: &Rep) -> Result<(), String> {
    if a.sim_cycles != b.sim_cycles {
        return Err(format!(
            "simulated cycles {} vs {}",
            a.sim_cycles, b.sim_cycles
        ));
    }
    if a.product != b.product {
        return Err("simulated product differs".into());
    }
    // The listed counters only: the snapshot also carries host-side
    // diagnostics (park watchdog expiries) that may legitimately differ.
    for (name, _) in spec::COUNTS {
        if a.counts.get(name) != b.counts.get(name) {
            let (x, y) = (a.counts.get(name), b.counts.get(name));
            return Err(format!("count {name}: {x:?} vs {y:?}"));
        }
    }
    Ok(())
}

/// The untraced pass over one workload: reps until the budget is spent,
/// each in a fresh pinned child.
pub fn measure(
    workload: &'static str,
    seed: u64,
    budget: Budget,
    cpu: Option<usize>,
) -> Result<Report, String> {
    let exe = own_binary()?;
    let t0 = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let go = match budget {
            Budget::Reps(n) => reps.len() < n.max(1),
            Budget::Seconds(s) => reps.is_empty() || t0.elapsed().as_secs_f64() < s,
        };
        if !go {
            break;
        }
        reps.push(run_rep(&exe, workload, seed, false, cpu)?.0);
    }

    let mut report = Report {
        workload,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        notes: reps.iter().flat_map(|r| r.notes.clone()).collect(),
        pinned: cpu.is_some() && reps.iter().all(|r| r.pinned),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        trace_file: None,
    };
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if let Err(why) = same_simulation(&reps[0], rep) {
            report.failed += 1;
            report
                .notes
                .push(format!("rep {i} is not rep 0 again: {why}"));
        }
    }
    let columns: Vec<[f64; 5]> = reps.iter().map(end_to_end_of).collect();
    for (i, metric) in spec::END_TO_END.iter().enumerate() {
        let values: Vec<f64> = columns.iter().map(|c| c[i]).collect();
        let summary = Summary::of(&values).expect("at least one rep ran");
        if !(summary.min.is_finite() && summary.min > 0.0) {
            report.failed += 1;
            report
                .notes
                .push(format!("{} is not a positive number", metric.name));
        }
        report.end_to_end.push((metric.name, summary));
    }
    Ok(report)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `hits / (hits + misses)`.
fn share(hits: f64, misses: f64) -> f64 {
    ratio(hits, hits + misses)
}

fn span_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, Span::host_ms)
}

/// Probe children per traced run; each probe metric is their median.
const PROBE_RUNS: usize = 3;

/// The traced pass over one workload: an untraced pinned reference rep, a
/// traced pinned rep, an untraced unpinned rep and the probe set. Writes
/// the Chrome trace and the self-time table under `out_dir`.
///
/// `plain` is the default-features build of this binary. Everything that
/// prices host time — the reference rep, the unpinned rep, the probes —
/// runs there, because that is the build users run and the one the
/// end-to-end metrics come from; merely compiling the event rings in
/// costs host time even with recording off. Only the traced rep runs in
/// this (`trace`-feature) binary.
pub fn measure_traced(
    workload: &'static str,
    seed: u64,
    cpu: Option<usize>,
    plain: &Path,
    out_dir: &Path,
) -> Result<Report, String> {
    let (reference, ref_at) = run_rep(plain, workload, seed, false, cpu)?;
    let (traced, traced_at) = run_rep(&own_binary()?, workload, seed, true, cpu)?;
    let (unpinned, unpinned_at) = run_rep(plain, workload, seed, false, None)?;
    let mut probe_runs = Vec::new();
    for _ in 0..PROBE_RUNS {
        probe_runs.push(spawn_child(plain, &["probes".to_string(), cpu_arg(cpu)])?);
    }
    let probe_value = |name: &str| {
        let values: Vec<f64> = probe_runs
            .iter()
            .filter_map(|(doc, _)| doc.get("values")?.get(name)?.as_f64())
            .collect();
        Summary::of(&values).map(|s| s.median)
    };
    let probes_pinned = probe_runs
        .iter()
        .all(|(doc, _)| doc.get("pinned").and_then(Json::as_bool) == Some(true));
    let (probes, probes_at) = &probe_runs[0];
    let probe_spans = probes
        .get("spans")
        .and_then(span::from_json)
        .ok_or("probe child: incomplete result")?;

    let mut report = Report {
        workload,
        attempted: traced.attempted,
        failed: traced.failed,
        notes: traced.notes.clone(),
        pinned: cpu.is_some() && reference.pinned && traced.pinned && probes_pinned,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        trace_file: None,
    };
    let fail = |report: &mut Report, why: String| {
        report.failed += 1;
        report.notes.push(why);
    };
    // Tracing and pinning are host-side only.
    for (label, rep) in [("traced", &traced), ("unpinned", &unpinned)] {
        if let Err(why) = same_simulation(&reference, rep) {
            fail(
                &mut report,
                format!("the {label} rep is not the reference again: {why}"),
            );
        }
    }
    let stats = traced.trace.unwrap_or_default();
    if stats.findings != 0 {
        fail(
            &mut report,
            format!("the checker reports {} findings", stats.findings),
        );
    }
    if stats.dropped != 0 {
        fail(
            &mut report,
            format!("{} events dropped: ring too small", stats.dropped),
        );
    }
    // A rep that reports counters ran one machine to the end and must
    // have its rings; `paper_micro` builds a dozen and reports neither.
    if cfg!(feature = "trace") && stats.events == 0 && !traced.counts.is_empty() {
        fail(&mut report, "the traced rep recorded no events".into());
    }
    if let Some(n) = traced.counts.get("kv.requests") {
        let tail = highest_supported_tail(*n).map(|t| t.0);
        if tail != Some("p999") {
            fail(
                &mut report,
                format!("{n} requests support {tail:?}, not p999"),
            );
        }
    }

    let c = |name: &str| traced.counts.get(name).copied().unwrap_or(0) as f64;
    let wall_ns = reference.host_wall_s * 1e9;
    let traced_extra_ns = (traced.host_wall_s - reference.host_wall_s) * 1e9;
    for m in spec::per_layer() {
        let value = match (m.source, m.name) {
            (Source::Count, name) => c(name),
            (Source::Product, name) => traced.product.get(name).copied().unwrap_or(0.0),
            (Source::Probe, name) => match probe_value(name) {
                Some(v) => v,
                None => {
                    fail(&mut report, format!("no probe reported {name}"));
                    0.0
                }
            },
            (Source::Span, name) => span_ms(&reference.spans, name.trim_end_matches(".host_ms")),
            (_, "hw.l1_hit_rate") => share(c("hw.l1_hits"), c("hw.l1_misses")),
            (_, "hw.l2_hit_rate") => share(c("hw.l2_hits"), c("hw.l2_misses")),
            (_, "hw.wcb_merges_per_flush") => ratio(c("hw.wcb_merges"), c("hw.wcb_flushes")),
            (_, "kernel.tlb_hit_rate") => share(c("kernel.tlb_hits"), c("kernel.tlb_misses")),
            (_, "exec.fast_yield_share") => ratio(c("exec.fast_yields"), c("exec.yields")),
            (_, "mbx.checks_per_received") => ratio(c("mbx.checks"), c("mbx.received")),
            (_, "svm.transfers_per_fault") => ratio(c("svm.ownership_transfers"), c("svm.faults")),
            (_, "hw.host_ns_per_access") => {
                ratio(wall_ns, c("kernel.tlb_hits") + c("kernel.tlb_misses"))
            }
            (_, "exec.host_ns_per_election") => ratio(wall_ns, c("exec.elections")),
            (_, "exec.host_sys_share") => {
                ratio(reference.sys_s, reference.user_s + reference.sys_s)
            }
            (_, "exec.unpinned_wall_ratio") => ratio(unpinned.host_wall_s, reference.host_wall_s),
            (_, "instr.events") => stats.events as f64,
            (_, "instr.dropped") => stats.dropped as f64,
            (_, "instr.host_ns_per_event") => ratio(traced_extra_ns, stats.events as f64),
            (_, "instr.overhead_pct") => 100.0 * ratio(traced_extra_ns, wall_ns),
            (_, "check.events_per_host_s") => ratio(stats.events as f64, stats.check_s),
            (_, "check.findings") => stats.findings as f64,
            (_, name) => unreachable!("spec lists {name} without a way to compute it"),
        };
        report.per_layer.push((m.name, value));
    }

    // One Chrome trace per workload: the workload's index is the id every
    // span of the run shares, each process is a lane.
    let pid = spec::WORKLOADS
        .iter()
        .position(|w| w.name == workload)
        .unwrap_or(0) as u64;
    let lanes = [
        (
            "reference: default build, pinned, untraced",
            &reference.spans,
            ref_at,
        ),
        (
            "traced: trace build, pinned, rings on",
            &traced.spans,
            traced_at,
        ),
        (
            "unpinned: default build, untraced",
            &unpinned.spans,
            unpinned_at,
        ),
        ("probes: default build, pinned", &probe_spans, *probes_at),
    ];
    let mut events = Vec::new();
    let mut table = String::new();
    for (tid, (lane, spans, at)) in lanes.into_iter().enumerate() {
        events.extend(span::chrome_events(spans, pid, tid as u64, lane, at));
        table.push_str(&format!(
            "-- {workload}, {lane}\n{}\n",
            span::self_time_table(spans)
        ));
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let trace_path = out_dir.join(format!("trace_{workload}.json"));
    let table_path = out_dir.join(format!("selftime_{workload}.txt"));
    let doc = Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ]);
    std::fs::write(&trace_path, doc.compact())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    std::fs::write(&table_path, table).map_err(|e| format!("{}: {e}", table_path.display()))?;
    report.trace_file = Some(trace_path.display().to_string());
    Ok(report)
}

/// Fig 9 prints no values, so it is checked by shape: at 48 cores the
/// message-passing variant beats both SVM variants, and lazy release is
/// no slower than the strong model.
pub fn fig9_order_holds(sim_mcyc: &BTreeMap<&str, f64>) -> Option<bool> {
    let get = |w| sim_mcyc.get(w).copied();
    let (ircce, lazy, strong) = (
        get("laplace_ircce_48")?,
        get("laplace_lazy_48")?,
        get("laplace_strong_48")?,
    );
    Some(ircce < lazy && lazy <= strong)
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The line the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        let per_layer = spec::per_layer();
        let unit_of = |name: &str| -> &'static str {
            let end_to_end = spec::END_TO_END.iter().map(|e| (e.name, e.unit));
            end_to_end
                .chain(per_layer.iter().map(|p| (p.name, p.unit)))
                .find(|(n, _)| *n == name)
                .map_or("", |(_, unit)| unit)
        };
        let metric = |name: &str, value: f64| {
            (
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(unit_of(name))),
                ]),
            )
        };
        let metrics: Vec<(String, Json)> = self
            .end_to_end
            .iter()
            .map(|(name, s)| metric(name, s.median))
            .chain(self.per_layer.iter().map(|(name, v)| metric(name, *v)))
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact()
    }

    /// For the result file `--compare` reads.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("pinned", Json::Bool(self.pinned)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            (
                "end_to_end",
                Json::obj(self.end_to_end.iter().map(|(name, s)| {
                    (
                        *name,
                        Json::obj([
                            ("median", Json::Num(s.median)),
                            ("min", Json::Num(s.min)),
                            ("max", Json::Num(s.max)),
                            ("n", Json::Num(s.n as f64)),
                        ]),
                    )
                })),
            ),
            (
                "per_layer",
                Json::obj(
                    self.per_layer
                        .iter()
                        .map(|(name, v)| (*name, Json::Num(*v))),
                ),
            ),
        ])
    }

    /// Every metric by name, with unit, median, extremes and sample count,
    /// for a person.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "== {} — {} of {} operations failed{}\n",
            self.workload,
            self.failed,
            self.attempted,
            if self.pinned {
                ""
            } else {
                " — NOT PINNED: host-time metrics are unresolved"
            }
        );
        for (name, s) in &self.end_to_end {
            let e = spec::END_TO_END
                .iter()
                .find(|e| e.name == *name)
                .expect("listed");
            let _ = writeln!(
                out,
                "  {name:<22} {:>14.6} {:<7} min {:<12.6} max {:<12.6} n {}  ({} clock, {} is better, bound {:.0} %)",
                s.median,
                e.unit,
                s.min,
                s.max,
                s.n,
                if e.clock == spec::Clock::Sim { "sim" } else { "host" },
                e.better.name(),
                100.0 * e.bound,
            );
        }
        let per_layer = spec::per_layer();
        for ((name, v), m) in self.per_layer.iter().zip(&per_layer) {
            let _ = writeln!(
                out,
                "  {name:<32} {v:>18.4} {:<7} -> {} on {}",
                m.unit, m.moves.0, m.moves.1
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "  ! {note}");
        }
        if let Some(path) = &self.trace_file {
            let _ = writeln!(out, "  trace: {path}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_shape() {
        let cell = |i, l, s| {
            BTreeMap::from([
                ("laplace_ircce_48", i),
                ("laplace_lazy_48", l),
                ("laplace_strong_48", s),
            ])
        };
        assert_eq!(fig9_order_holds(&cell(15.1, 24.7, 29.1)), Some(true));
        assert_eq!(fig9_order_holds(&cell(15.1, 24.7, 24.7)), Some(true));
        assert_eq!(fig9_order_holds(&cell(25.0, 24.7, 29.1)), Some(false));
        assert_eq!(fig9_order_holds(&cell(15.1, 30.0, 29.1)), Some(false));
        assert_eq!(fig9_order_holds(&BTreeMap::new()), None);
    }

    #[test]
    fn the_contract_line_has_exactly_the_asked_keys() {
        let s = Summary::of(&[1.5, 2.5, 2.0]).unwrap();
        let report = Report {
            workload: "laplace_lazy_48",
            attempted: 3,
            failed: 0,
            notes: Vec::new(),
            pinned: true,
            end_to_end: spec::END_TO_END.iter().map(|e| (e.name, s)).collect(),
            per_layer: Vec::new(),
            trace_file: None,
        };
        let line = report.contract_line();
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }
}
