//! The benchmark's contract in one place: the workloads, the end-to-end
//! metrics with their bounds, and the per-layer metrics with the
//! end-to-end metric and workload each is expected to move.
//! `BENCHMARK.json` is `svmbench --list`, written from these tables.

use crate::json::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "laplace_lazy_48",
        why: "Fig 9's headline cell under lazy release: host time is the per-access path (vread/vwrite, cache and WCB model), not the executor",
    },
    Workload {
        name: "laplace_strong_48",
        why: "same solver under the strong model: boundary rows migrate ownership through the mailbox and fault path, so a gain for one model that costs the other shows",
    },
    Workload {
        name: "laplace_ircce_48",
        why: "same grid over rcce with L2 on: bypasses metalsvm and the mailbox, the predicted-no-change row for SVM work and the only one carried by hw.l2_* and rcce.*",
    },
    Workload {
        name: "kv_strong_128",
        why: "svm-kv on mesh8x8, strong partitions, open loop past saturation: the migration wall; simulated span is capacity, host side is hand-off bound",
    },
    Workload {
        name: "kv_lrc_512",
        why: "svm-kv on mesh16x32, LRC partitions, open loop below saturation: only host-time cell above 48 cores, only user of SvmLock, sharded directories and off-die mail rows",
    },
    Workload {
        name: "paper_micro",
        why: "the numbers the paper prints (Table 1, Fig 6 and 7 end points, 48-core barrier and allreduce): pins each protocol step's simulated cost",
    },
];

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is read from. A simulated metric repeats exactly
/// for one seed; a host metric carries the sandbox's noise.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Seconds (or whatever the unit is) below which `--compare` calls a
    /// difference noise whatever its share; 0 for none.
    pub floor: f64,
    pub clock: Clock,
}

pub const END_TO_END: [EndToEnd; 5] = [
    // Process start until rank 0 has built the machine, spawned the core
    // threads and installed mailbox/SVM/RCCE; median over the run's fresh
    // processes. The largest bound: tens of milliseconds on small machines.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        // Tens of milliseconds on the small machines: scheduling noise.
        floor: 0.020,
        clock: Clock::Host,
    },
    // Host seconds from there until `Cluster::run` has returned, pinned to
    // one CPU; median over reps.
    EndToEnd {
        name: "host_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
        clock: Clock::Host,
    },
    // `host_wall_s` over the simulated cycles it produced: the cost of one
    // unit of product.
    EndToEnd {
        name: "host_ns_per_sim_cyc",
        unit: "ns/cyc",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
        clock: Clock::Host,
    },
    // Peak resident memory of the process that ran the workload.
    EndToEnd {
        name: "host_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
        clock: Clock::Host,
    },
    // Simulated megacycles (533 MHz) of the measured phase: the solver
    // loop, the mean client span of a kv run, or the sum of the paper's
    // probe rows. Exact for one seed; over ten seeds the kv spans' quartiles
    // lie up to 1.9 % apart, and a third of this bound has to clear that.
    EndToEnd {
        name: "sim_mcyc",
        unit: "Mcyc",
        better: Better::Lower,
        bound: 0.08,
        floor: 0.0,
        clock: Clock::Sim,
    },
];

/// Where a per-layer metric's value comes from in the traced run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Source {
    /// Read from the public `MetricsSnapshot` / `KvOutcome`.
    Count,
    /// Computed from counts and the child's clocks.
    Ratio,
    /// The simulated product beyond `sim_mcyc` (kv tail, Table 1 error).
    Product,
    /// A probe program (`probes::run_all`), in its order.
    Probe,
    /// One of svmbench's spans around the workload.
    Span,
    /// The program's event rings and the checker over them.
    Instr,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// The end-to-end metric and workload this metric should move.
    pub moves: (&'static str, &'static str),
}

const LAZY: &str = "laplace_lazy_48";
const STRONG: &str = "laplace_strong_48";
const IRCCE: &str = "laplace_ircce_48";
const KV128: &str = "kv_strong_128";
const KV512: &str = "kv_lrc_512";
const PAPER: &str = "paper_micro";
const SIM: &str = "sim_mcyc";
const WALL: &str = "host_wall_s";
const SETUP: &str = "setup_s";

/// Counters, exact for one seed. Direction: more hits are better, more of
/// anything else is more work.
pub const COUNTS: [(&str, (&str, &str)); 33] = [
    ("hw.l1_hits", (SIM, LAZY)),
    ("hw.l1_misses", (SIM, LAZY)),
    ("hw.l2_hits", (SIM, IRCCE)),
    ("hw.l2_misses", (SIM, IRCCE)),
    ("hw.ram_reads", (SIM, IRCCE)),
    ("hw.ram_writes", (SIM, IRCCE)),
    ("hw.mpb_reads", (SIM, KV128)),
    ("hw.mpb_writes", (SIM, KV128)),
    ("hw.wcb_merges", (SIM, LAZY)),
    ("hw.wcb_flushes", (SIM, LAZY)),
    ("hw.cl1invmb", (SIM, KV512)),
    ("hw.ipis_sent", (SIM, KV128)),
    ("hw.tas_spins", (SIM, KV512)),
    ("exec.yields", (WALL, KV512)),
    ("exec.blocks", (WALL, KV512)),
    ("exec.fast_yields", (WALL, KV128)),
    ("exec.elections", (WALL, KV512)),
    ("kernel.tlb_hits", (WALL, LAZY)),
    ("kernel.tlb_misses", (WALL, LAZY)),
    ("kernel.tlb_shootdowns", (WALL, STRONG)),
    ("kernel.coll.barriers", (SIM, LAZY)),
    ("mbx.sent", (SIM, KV128)),
    ("mbx.checks", (SIM, KV128)),
    ("mbx.retries", (SIM, KV128)),
    ("mbx.timeouts", (SIM, KV128)),
    ("mbx.send_stalls", (SIM, KV128)),
    ("mbx.deferred_sends", (SIM, KV128)),
    ("svm.faults", (SIM, STRONG)),
    ("svm.ownership_transfers", (SIM, KV128)),
    ("svm.first_touch_allocs", (SIM, LAZY)),
    ("kv.requests", (SIM, KV128)),
    ("kv.served", (SIM, KV128)),
    ("kv.rejected", (SIM, KV128)),
];

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: (&'static str, &'static str),
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

/// A probe reported on both clocks. The host number moves `host_wall_s`,
/// the simulated number `sim_mcyc`, on the same workload.
macro_rules! two_clock {
    ($out:ident, $name:literal, $workload:expr) => {
        $out.push(m(
            concat!($name, ".host_ns"),
            "ns",
            Better::Lower,
            Source::Probe,
            (WALL, $workload),
        ));
        $out.push(m(
            concat!($name, ".sim_cyc"),
            "cyc",
            Better::Lower,
            Source::Probe,
            (SIM, $workload),
        ));
    };
}

/// Every per-layer metric, in the order the traced run prints them.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    for (name, moves) in COUNTS {
        let better = if name.ends_with("_hits") || name == "kv.served" {
            Higher
        } else {
            Lower
        };
        out.push(m(name, "count", better, Source::Count, moves));
    }

    let r = Source::Ratio;
    out.push(m("hw.l1_hit_rate", "ratio", Higher, r, (SIM, LAZY)));
    out.push(m("hw.l2_hit_rate", "ratio", Higher, r, (SIM, IRCCE)));
    out.push(m(
        "hw.wcb_merges_per_flush",
        "ratio",
        Higher,
        r,
        (SIM, LAZY),
    ));
    out.push(m("kernel.tlb_hit_rate", "ratio", Higher, r, (WALL, LAZY)));
    out.push(m(
        "exec.fast_yield_share",
        "ratio",
        Higher,
        r,
        (WALL, KV128),
    ));
    out.push(m(
        "mbx.checks_per_received",
        "ratio",
        Lower,
        r,
        (SIM, KV128),
    ));
    out.push(m(
        "svm.transfers_per_fault",
        "ratio",
        Lower,
        r,
        (SIM, KV128),
    ));
    out.push(m("hw.host_ns_per_access", "ns", Lower, r, (WALL, LAZY)));
    out.push(m(
        "exec.host_ns_per_election",
        "ns",
        Lower,
        r,
        (WALL, KV512),
    ));
    out.push(m("exec.host_sys_share", "ratio", Lower, r, (WALL, KV128)));
    // What an unpinned user pays; under pinning it moves nothing.
    out.push(m(
        "exec.unpinned_wall_ratio",
        "ratio",
        Lower,
        r,
        (WALL, KV128),
    ));

    let p = Source::Product;
    out.push(m("kv.sim_p50_kcyc", "kcyc", Lower, p, (SIM, KV512)));
    out.push(m("kv.sim_p99_kcyc", "kcyc", Lower, p, (SIM, KV128)));
    out.push(m("kv.sim_p999_kcyc", "kcyc", Lower, p, (SIM, KV128)));
    out.push(m("kv.sim_req_per_mcyc", "1/Mcyc", Higher, p, (SIM, KV128)));
    out.push(m("kv.drain_kcyc", "kcyc", Lower, p, (SIM, KV128)));
    out.push(m("paper.err_max_pct", "%", Lower, p, (SIM, PAPER)));

    // In `probes::run_all`'s order.
    two_clock!(out, "hw.read_l1hit", LAZY);
    two_clock!(out, "hw.read_l2hit", IRCCE);
    two_clock!(out, "hw.read_ddr", IRCCE);
    two_clock!(out, "hw.write_wcb", LAZY);
    two_clock!(out, "hw.mpb_rw", KV128);
    two_clock!(out, "kernel.vread_hit", LAZY);
    two_clock!(out, "kernel.vread_block", LAZY);
    two_clock!(out, "kernel.ram_barrier.48", LAZY);
    two_clock!(out, "kernel.ram_barrier.512", KV512);
    let pr = Source::Probe;
    out.push(m("exec.handoff.2.host_ns", "ns", Lower, pr, (WALL, PAPER)));
    out.push(m(
        "exec.handoff.48.host_ns",
        "ns",
        Lower,
        pr,
        (WALL, STRONG),
    ));
    out.push(m(
        "exec.handoff.512.host_ns",
        "ns",
        Lower,
        pr,
        (WALL, KV512),
    ));
    two_clock!(out, "mbx.pingpong_poll", PAPER);
    two_clock!(out, "mbx.pingpong_ipi", KV128);
    two_clock!(out, "mbx.pingpong_poll.48", PAPER);
    two_clock!(out, "rcce.sendrecv_4k", IRCCE);
    two_clock!(out, "rcce.allreduce.48", IRCCE);
    two_clock!(out, "svm.alloc_4m", PAPER);
    two_clock!(out, "svm.first_touch", PAPER);
    two_clock!(out, "svm.map_strong", STRONG);
    two_clock!(out, "svm.map_lazy", LAZY);
    two_clock!(out, "svm.retrieve", KV128);
    two_clock!(out, "svm.lock_pair", KV512);
    two_clock!(out, "svm.barrier.48", LAZY);
    two_clock!(out, "kv.get_sealed", KV512);
    two_clock!(out, "kv.put_lrc", KV512);
    two_clock!(out, "kv.scan_strong", KV128);
    out.push(m(
        "hw.machine_new.48.host_ms",
        "ms",
        Lower,
        pr,
        (SETUP, LAZY),
    ));
    out.push(m(
        "hw.machine_new.512.host_ms",
        "ms",
        Lower,
        pr,
        (SETUP, KV512),
    ));
    out.push(m(
        "exec.spawn_join.512.host_ms",
        "ms",
        Lower,
        pr,
        (SETUP, KV512),
    ));

    let s = Source::Span;
    out.push(m(
        "setup.machine_new.host_ms",
        "ms",
        Lower,
        s,
        (SETUP, KV512),
    ));
    out.push(m("setup.spawn.host_ms", "ms", Lower, s, (SETUP, KV512)));
    out.push(m("setup.install.host_ms", "ms", Lower, s, (SETUP, KV512)));
    out.push(m("run.app.host_ms", "ms", Lower, s, (WALL, KV512)));
    out.push(m("run.join.host_ms", "ms", Lower, s, (WALL, KV512)));

    // These price the traced run itself; no end-to-end metric is taken
    // from it, so what they "move" is that run's own wall time.
    let i = Source::Instr;
    out.push(m("instr.events", "count", Lower, i, (WALL, STRONG)));
    out.push(m("instr.dropped", "count", Lower, i, (WALL, STRONG)));
    out.push(m("instr.host_ns_per_event", "ns", Lower, i, (WALL, STRONG)));
    out.push(m("instr.overhead_pct", "%", Lower, i, (WALL, STRONG)));
    out.push(m(
        "check.events_per_host_s",
        "1/s",
        Higher,
        i,
        (WALL, STRONG),
    ));
    out.push(m("check.findings", "count", Lower, i, (WALL, STRONG)));
    out
}

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

fn name_ok(name: &str, max: usize) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= max
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn unit_ok(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Check a set of tables against the limits `BENCHMARK.json` is held to,
/// and that every per-layer metric names an end-to-end metric and a
/// workload that exist.
pub fn validate(
    workloads: &[Workload],
    end_to_end: &[EndToEnd],
    per_layer: &[PerLayer],
) -> Result<(), String> {
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads: need 2 to 8", workloads.len()));
    }
    if !(1..=16).contains(&end_to_end.len()) {
        return Err(format!(
            "{} end-to-end metrics: need 1 to 16",
            end_to_end.len()
        ));
    }
    if !(1..=128).contains(&per_layer.len()) {
        return Err(format!(
            "{} per-layer metrics: need 1 to 128",
            per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = workloads
        .iter()
        .map(|w| w.name)
        .chain(end_to_end.iter().map(|e| e.name))
        .chain(per_layer.iter().map(|p| p.name));
    for name in names {
        if !name_ok(name, 64) {
            return Err(format!("bad name {name:?}"));
        }
        if !seen.insert(name) {
            return Err(format!("name {name:?} used twice"));
        }
    }
    for w in workloads {
        if w.why.is_empty() || w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!(
                "workload {}: `why` must be one line of 1..=200",
                w.name
            ));
        }
    }
    for e in end_to_end {
        if !unit_ok(e.unit) {
            return Err(format!("{}: bad unit {:?}", e.name, e.unit));
        }
        if !(e.bound > 0.0 && e.bound <= 0.25) {
            return Err(format!("{}: bound {} outside (0, 0.25]", e.name, e.bound));
        }
    }
    let setup = end_to_end.iter().find(|e| e.name == "setup_s");
    if !setup.is_some_and(|e| e.unit == "s" && e.better == Better::Lower) {
        return Err("no `setup_s` in seconds, lower is better".into());
    }
    for p in per_layer {
        if !unit_ok(p.unit) {
            return Err(format!("{}: bad unit {:?}", p.name, p.unit));
        }
        let (metric, workload) = p.moves;
        if !end_to_end.iter().any(|e| e.name == metric) {
            return Err(format!(
                "{} should move {metric}, which is no end-to-end metric",
                p.name
            ));
        }
        if !workloads.iter().any(|w| w.name == workload) {
            return Err(format!(
                "{} should move {workload}, which is no workload",
                p.name
            ));
        }
    }
    Ok(())
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let named = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.name())),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("svmbench/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("svmbench")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|e| {
                        let mut row = named(e.name, e.unit, e.better);
                        row.push(("bound", Json::Num(e.bound)));
                        Json::obj(row)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|p| Json::obj(named(p.name, p.unit, p.better)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tables_are_valid() {
        validate(&WORKLOADS, &END_TO_END, &per_layer()).unwrap();
        assert_eq!(per_layer().len(), 115);
    }

    fn one(name: &'static str, moves: (&'static str, &'static str)) -> Vec<PerLayer> {
        vec![m(name, "count", Better::Lower, Source::Count, moves)]
    }

    #[test]
    fn the_validator_rejects_what_the_contract_refuses() {
        let ok = || one("hw.x", (SIM, LAZY));
        validate(&WORKLOADS, &END_TO_END, &ok()).unwrap();
        let bad = |per: Vec<PerLayer>| validate(&WORKLOADS, &END_TO_END, &per).unwrap_err();
        assert!(bad(one("hw x", (SIM, LAZY))).contains("bad name"));
        assert!(bad(one(".hw", (SIM, LAZY))).contains("bad name"));
        assert!(bad(one("setup_s", (SIM, LAZY))).contains("twice"));
        assert!(bad(one("hw.x", ("sim_ms", LAZY))).contains("no end-to-end metric"));
        assert!(bad(one("hw.x", (SIM, "laplace"))).contains("no workload"));
        let long: &'static str = Box::leak("x".repeat(65).into_boxed_str());
        assert!(bad(one(long, (SIM, LAZY))).contains("bad name"));
        let mut twice = ok();
        twice.extend(ok());
        assert!(bad(twice).contains("twice"));
        let many: Vec<PerLayer> = (0..129)
            .map(|i| {
                let name: &'static str = Box::leak(format!("m{i}").into_boxed_str());
                m(name, "count", Better::Lower, Source::Count, (SIM, LAZY))
            })
            .collect();
        assert!(bad(many).contains("need 1 to 128"));
        let mut unit = ok();
        unit[0].unit = "req per s";
        assert!(bad(unit).contains("bad unit"));
    }

    #[test]
    fn benchmark_json_at_the_root_is_what_list_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(crate::json::parse(&text).unwrap(), benchmark_json());
        assert_eq!(
            text,
            benchmark_json().pretty(),
            "regenerate with `svmbench --list`"
        );
        assert!(text.len() <= 64 * 1024);
    }
}
