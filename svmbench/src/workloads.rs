//! The six workloads, as run inside one child process: build the machine,
//! spawn and install, run the application, check its output, and hand
//! back the simulated product, the counters and the event rings.

use crate::probes::{self, Lead, Op};
use crate::span::{Recorder, SpanId};
use metalsvm::{install as svm_install, Consistency, SvmConfig};
use rcce::RcceComm;
use scc_apps::laplace::{laplace_ircce, laplace_reference, laplace_svm, LaplaceParams, ROW_PAD};
use scc_hw::instr::{EventKind, TraceConfig};
use scc_hw::machine::CoreResult;
use scc_hw::{CoreId, MetricsSnapshot, MetricsSource, SccConfig, Topology, TraceRing};
use scc_kernel::{Cluster, Kernel};
use scc_kv::{kv_metrics, run_kv, KvConfig, KvOutcome, LatencyHistogram, Strategy};
use scc_mailbox::{install as mbx_install, Notify};
use std::sync::Mutex;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Variant {
    Lazy,
    Strong,
    Ircce,
}

/// What a workload name stands for. The full sizes are fixed by the name;
/// the toy sizes exist for the unit tests.
#[derive(Clone, Debug)]
pub enum Shape {
    Laplace {
        variant: Variant,
        cores: usize,
        p: LaplaceParams,
    },
    Kv {
        topo: Topology,
        servers: usize,
        strategy: Strategy,
        requests_per_client: usize,
        mean_interarrival: u64,
        /// Event-ring capacity per core that holds a whole traced run.
        ring: usize,
    },
    PaperMicro {
        size: probes::Size,
    },
}

impl Shape {
    pub fn full(name: &str) -> Option<Shape> {
        let laplace = |variant| Shape::Laplace {
            variant,
            cores: 48,
            p: LaplaceParams::paper(25),
        };
        Some(match name {
            "laplace_lazy_48" => laplace(Variant::Lazy),
            "laplace_strong_48" => laplace(Variant::Strong),
            "laplace_ircce_48" => laplace(Variant::Ircce),
            "kv_strong_128" => Shape::Kv {
                topo: Topology::mesh8x8(),
                servers: 16,
                strategy: Strategy::Strong,
                requests_per_client: 600,
                mean_interarrival: 40_000,
                ring: 1 << 20,
            },
            "kv_lrc_512" => Shape::Kv {
                topo: Topology::mesh16x32(),
                servers: 64,
                strategy: Strategy::Lrc,
                requests_per_client: 80,
                mean_interarrival: 400_000,
                ring: 1 << 17,
            },
            "paper_micro" => Shape::PaperMicro {
                size: probes::Size::FULL,
            },
            _ => return None,
        })
    }

    /// 4 cores, a 32x16 grid, 20 kv requests.
    #[cfg(test)]
    pub fn toy(name: &str) -> Option<Shape> {
        Some(match Shape::full(name)? {
            Shape::Laplace { variant, .. } => Shape::Laplace {
                variant,
                cores: 4,
                p: LaplaceParams::tiny(),
            },
            Shape::Kv { strategy, .. } => Shape::Kv {
                topo: Topology::scc48(),
                servers: 1,
                strategy,
                requests_per_client: 20,
                mean_interarrival: 40_000,
                ring: 1 << 14,
            },
            Shape::PaperMicro { .. } => Shape::PaperMicro {
                size: probes::Size::TOY,
            },
        })
    }
}

/// What one run of a workload hands back.
pub struct Outcome {
    /// Simulated cycles of the measured phase.
    pub sim_cycles: u64,
    /// Operations attempted and failed: solver runs, requests, probe rows.
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, for a person to read.
    pub notes: Vec<String>,
    /// The public counters, merged over the cores.
    pub counts: MetricsSnapshot,
    /// Deterministic simulated results beyond `sim_cycles`, by per-layer
    /// metric name (kv percentiles, Table 1 error).
    pub product: Vec<(&'static str, f64)>,
    /// The program's per-core event rings (empty unless traced).
    pub rings: Vec<(CoreId, TraceRing)>,
}

/// The phases of a run, recorded as spans from wherever they happen: the
/// main thread builds the machine and joins, rank 0 marks the rest.
///
/// ```text
/// setup  = setup.machine_new + setup.spawn + setup.install
/// run    = run.app + run.join
/// ```
///
/// `setup` starts at the process's epoch, so `setup_s` is process start to
/// "rank 0 has installed"; `run` is `host_wall_s`.
pub struct Phases<'r> {
    rec: &'r Recorder,
    at: Mutex<At>,
}

struct At {
    group: SpanId,
    leaf: SpanId,
    /// How many of the set-up moments have arrived.
    stage: usize,
}

impl<'r> Phases<'r> {
    pub fn begin(rec: &'r Recorder, root: SpanId) -> Phases<'r> {
        let group = rec.open_at_epoch("setup", Some(root));
        let leaf = rec.open("setup.machine_new", Some(group), 0);
        let at = Mutex::new(At {
            group,
            leaf,
            stage: 0,
        });
        Phases { rec, at }
    }

    fn at(&self) -> std::sync::MutexGuard<'_, At> {
        self.at
            .lock()
            .expect("a core panicked while marking a phase")
    }

    /// The set-up moments, in the order they must arrive. A moment that
    /// arrives again (a workload that builds several machines reports each
    /// one) belongs to the application and is ignored.
    pub fn lead(&self, what: Lead, sim: u64) {
        let mut at = self.at();
        if what as usize != at.stage {
            return;
        }
        at.stage += 1;
        match what {
            Lead::MachineBuilt => at.leaf = self.rec.next(at.leaf, "setup.spawn", sim),
            Lead::Entered => at.leaf = self.rec.next(at.leaf, "setup.install", sim),
            Lead::Installed => {
                self.rec.close(at.leaf, sim);
                at.group = self.rec.next(at.group, "run", sim);
                at.leaf = self.rec.open("run.app", Some(at.group), sim);
            }
        }
    }

    /// Rank 0's application returned.
    pub fn app_done(&self, sim: u64) {
        let mut at = self.at();
        at.leaf = self.rec.next(at.leaf, "run.join", sim);
    }

    /// `Cluster::run` returned on the main thread.
    pub fn joined(self) {
        let at = self.at();
        self.rec.close(at.leaf, 0);
        self.rec.close(at.group, 0);
    }
}

/// Run `body` on the first `n` cores of a fresh `cfg` machine with the
/// phases marked by rank 0. `body` installs what it needs, calls
/// `installed`, then runs its application.
fn run_phased<R: Send>(
    cfg: SccConfig,
    n: usize,
    phases: &Phases<'_>,
    body: impl Fn(&mut Kernel<'_>, &dyn Fn(&mut Kernel<'_>)) -> R + Send + Sync,
) -> Vec<CoreResult<R>> {
    let cl = Cluster::new(cfg).expect("the workload's machine configuration is valid");
    phases.lead(Lead::MachineBuilt, 0);
    cl.run(n, |k| {
        let lead = k.rank() == 0;
        if lead {
            phases.lead(Lead::Entered, k.hw.now());
        }
        let r = body(k, &|k| {
            if lead {
                phases.lead(Lead::Installed, k.hw.now());
            }
        });
        if lead {
            phases.app_done(k.hw.now());
        }
        r
    })
    .expect("the workload must not deadlock")
}

fn trace_config(traced: bool, ring: usize) -> TraceConfig {
    if traced {
        TraceConfig {
            per_core_capacity: ring,
            mask: EventKind::default_mask(),
        }
    } else {
        // With the `trace` feature compiled in, the default configuration
        // records; the untraced reference rep must not.
        TraceConfig::disabled()
    }
}

/// Fold the per-core hardware counters and each core's own contribution
/// (the second half of its result) into one snapshot, and split off the
/// rings.
fn collect<T>(
    res: Vec<CoreResult<(T, MetricsSnapshot)>>,
) -> (MetricsSnapshot, Vec<(CoreId, TraceRing)>, Vec<T>) {
    let mut counts = MetricsSnapshot::new();
    let mut rings = Vec::new();
    let mut results = Vec::new();
    for r in res {
        r.perf.metrics_into(&mut counts);
        counts.merge(&r.result.1);
        rings.push((r.core, r.trace));
        results.push(r.result.0);
    }
    (counts, rings, results)
}

pub fn run(shape: &Shape, seed: u64, traced: bool, rec: &Recorder, root: SpanId) -> Outcome {
    let phases = Phases::begin(rec, root);
    let out = match shape {
        Shape::Laplace { variant, cores, p } => {
            laplace(*variant, *cores, *p, trace_config(traced, 1 << 18), &phases)
        }
        Shape::Kv {
            topo,
            servers,
            strategy,
            requests_per_client,
            mean_interarrival,
            ring,
        } => {
            let kv = KvConfig {
                servers: *servers,
                partitions: vec![*strategy; 6],
                keyspace_log2: 12,
                requests_per_client: *requests_per_client,
                mean_interarrival: *mean_interarrival,
                zipf_theta: 0.99,
                get_pct: 70,
                scan_pct: 10,
                scan_len: 16,
                seed,
                // Each client's last completion stamp comes from these.
                record_requests: true,
            };
            kv_service(*topo, &kv, trace_config(traced, *ring), &phases)
        }
        Shape::PaperMicro { size } => paper_micro(*size, &phases),
    };
    phases.joined();
    out
}

// ----------------------------------------------------------------------
// Laplace (Figure 9's 48-core cells)
// ----------------------------------------------------------------------

fn laplace(
    variant: Variant,
    n: usize,
    p: LaplaceParams,
    trace: TraceConfig,
    phases: &Phases<'_>,
) -> Outcome {
    // Sized as `fig9`'s `laplace_config`: the message-passing variant
    // keeps two row blocks plus halos in private memory.
    let block_bytes = (p.height / n + 2) * (p.width + ROW_PAD) * 8 * 2;
    let cfg = probes::machine(
        Topology::scc48(),
        (block_bytes + 2 * 1024 * 1024).next_multiple_of(4096),
        64 * 1024 * 1024,
        trace,
    );
    let res = run_phased(cfg, n, phases, |k, installed| match variant {
        Variant::Ircce => {
            let mut comm = RcceComm::init(k);
            installed(k);
            (laplace_ircce(k, &mut comm, p), MetricsSnapshot::new())
        }
        Variant::Strong | Variant::Lazy => {
            let mbx = mbx_install(k, Notify::Ipi);
            let mut svm = svm_install(k, &mbx, SvmConfig::default());
            installed(k);
            let model = if variant == Variant::Strong {
                Consistency::Strong
            } else {
                Consistency::LazyRelease
            };
            let out = laplace_svm(k, &mut svm, model, p);
            // Mailbox counters are per core; the SVM protocol counters are
            // machine-wide, so rank 0 alone contributes them.
            let mut m = mbx.stats().metrics();
            if k.rank() == 0 {
                svm.shared().stats.metrics_into(&mut m);
            }
            (out, m)
        }
    });
    let (counts, rings, results) = collect(res);
    let checksum = results[0].checksum;
    let want = laplace_reference(p);
    let ok = checksum.to_bits() == want.to_bits();
    Outcome {
        sim_cycles: results.iter().map(|r| r.cycles).max().unwrap_or(0),
        attempted: 1,
        failed: u64::from(!ok),
        notes: if ok {
            Vec::new()
        } else {
            vec![format!(
                "checksum {checksum:e} differs from the reference {want:e}"
            )]
        },
        counts,
        product: Vec::new(),
        rings,
    }
}

// ----------------------------------------------------------------------
// svm-kv under open-loop traffic
// ----------------------------------------------------------------------

fn kv_service(topo: Topology, kv: &KvConfig, trace: TraceConfig, phases: &Phases<'_>) -> Outcome {
    assert!(
        kv.record_requests,
        "the client spans are read off the request records"
    );
    let cfg = probes::service_machine(topo, trace);
    let res = run_phased(cfg, topo.num_cores(), phases, |k, installed| {
        let mbx = mbx_install(k, Notify::Ipi);
        let mut svm = svm_install(k, &mbx, SvmConfig::default());
        installed(k);
        let out = run_kv(k, &mbx, &mut svm, kv);
        let mut m = mbx.stats().metrics();
        if k.rank() == 0 {
            svm.shared().stats.metrics_into(&mut m);
        }
        (out, m)
    });
    let (mut counts, rings, outs): (_, _, Vec<KvOutcome>) = collect(res);
    let kvm = kv_metrics(&outs);
    for name in ["kv.requests", "kv.served", "kv.rejected"] {
        counts.add(name, kvm.get(name));
    }

    let (sent, served, rejected) = (
        kvm.get("kv.requests"),
        kvm.get("kv.served"),
        kvm.get("kv.rejected"),
    );
    let mut hist = LatencyHistogram::new();
    for o in &outs {
        hist.merge(&o.hist);
    }
    // Make-span of the serving phase only, as `bench_kv` takes it.
    let start = outs.iter().map(|o| o.start_clock).min().unwrap_or(0);
    let end = outs.iter().map(|o| o.end_clock).max().unwrap_or(0);
    let make_span = (end - start).max(1);

    // The end-to-end span is the *mean* over the clients of the time each
    // took to get its schedule served. The make-span is the maximum, an
    // extreme value of 448 sums of exponential gaps: over ten seeds its
    // quartiles lie 6 % apart on `kv_lrc_512`, the mean's 0.6 %.
    let client_spans: Vec<u64> = outs
        .iter()
        .filter(|o| !o.is_server)
        .map(|o| {
            let last = o.records.iter().map(|r| r.done).max().unwrap_or(0);
            last.saturating_sub(o.start_clock)
        })
        .collect();
    let mean_span = client_spans.iter().sum::<u64>() / client_spans.len().max(1) as u64;
    // How far the last completion trails the last scheduled arrival: an
    // open loop that keeps up drains at once, a saturated one does not.
    let stamps = outs.iter().flat_map(|o| &o.records).filter(|r| r.done != 0);
    let last_done = stamps.clone().map(|r| r.done).max().unwrap_or(0);
    let last_sched = stamps.map(|r| r.sched).max().unwrap_or(0);

    let mut notes = Vec::new();
    if sent != served {
        notes.push(format!("{sent} requests sent but {served} served"));
    }
    if rejected != 0 {
        notes.push(format!("{rejected} requests refused"));
    }
    Outcome {
        sim_cycles: mean_span,
        attempted: sent + rejected,
        failed: sent.abs_diff(served) + rejected,
        notes,
        counts,
        product: vec![
            ("kv.sim_p50_kcyc", hist.p50() as f64 / 1e3),
            ("kv.sim_p99_kcyc", hist.p99() as f64 / 1e3),
            ("kv.sim_p999_kcyc", hist.p999() as f64 / 1e3),
            (
                "kv.sim_req_per_mcyc",
                served as f64 / (make_span as f64 / 1e6),
            ),
            (
                "kv.drain_kcyc",
                last_done.saturating_sub(last_sched) as f64 / 1e3,
            ),
        ],
        rings,
    }
}

// ----------------------------------------------------------------------
// The numbers the paper prints
// ----------------------------------------------------------------------

/// Table 1 of the paper, microseconds at 533 MHz: strong then lazy.
pub const PAPER_TABLE1_US: [(&str, f64); 7] = [
    ("table1.strong.alloc_4m", 741.0),
    ("table1.strong.first_touch", 112.301),
    ("table1.strong.map", 10.198),
    ("table1.strong.retrieve", 8.990),
    ("table1.lazy.alloc_4m", 741.0),
    ("table1.lazy.first_touch", 112.296),
    ("table1.lazy.map", 2.418),
];

/// Table 1 (both models), the end points of Figures 6 and 7, and the tree
/// barrier and allreduce at 48 cores. One row per number; `sim_cycles` is
/// their sum, so any protocol step that changes cost moves it.
fn paper_micro(size: probes::Size, phases: &Phases<'_>) -> Outcome {
    let topo = Topology::scc48();
    let mhz = f64::from(SccConfig::default_with(topo).timing.core_mhz);
    let mut rows: Vec<(String, Op)> = Vec::new();

    // The first machine's set-up is the workload's set-up; the machines
    // after it are part of the measured run.
    let on_lead = |what, sim| phases.lead(what, sim);
    let strong = probes::table1(Consistency::Strong, size.table1_bytes, &on_lead);
    let lazy = probes::table1(Consistency::LazyRelease, size.table1_bytes, &on_lead);
    let table1 = [
        strong.alloc,
        strong.first_touch,
        strong.map,
        strong.retrieve.expect("the strong model retrieves"),
        lazy.alloc,
        lazy.first_touch,
        lazy.map,
    ];
    let mut err_max_pct: f64 = 0.0;
    for ((name, paper_us), op) in PAPER_TABLE1_US.iter().zip(table1) {
        let us = op.sim_cyc / mhz;
        err_max_pct = err_max_pct.max(100.0 * (us - paper_us).abs() / paper_us);
        rows.push((name.to_string(), op));
    }

    let origin = CoreId::new(0);
    for hops in [0, topo.max_hops()] {
        let partner = topo
            .core_at_distance(origin, hops)
            .expect("a partner exists up to the mesh diameter");
        for (label, notify) in [("poll", Notify::Poll), ("ipi", Notify::Ipi)] {
            let op = probes::pingpong(origin, partner, &[origin, partner], notify, size.rounds);
            rows.push((format!("fig6.{label}.{hops}hops"), op));
        }
    }
    let far = CoreId::new(30);
    for active in [2, if size.big { 48 } else { 4 }] {
        for (label, notify) in [("poll", Notify::Poll), ("ipi", Notify::Ipi)] {
            let set = probes::active_set(active);
            let op = probes::pingpong(origin, far, &set, notify, size.rounds);
            rows.push((format!("fig7.{label}.{active}cores"), op));
        }
    }
    let n = if size.big { 48 } else { 4 };
    rows.push((
        format!("ram_barrier.{n}"),
        probes::ram_barrier_op(topo, n, size.collectives),
    ));
    rows.push((
        format!("allreduce.{n}"),
        probes::allreduce_op(topo, n, size.collectives),
    ));
    phases.app_done(0);

    // A row that reports no simulated time measured nothing.
    let notes: Vec<String> = rows
        .iter()
        .filter(|(_, op)| !(op.sim_cyc.is_finite() && op.sim_cyc > 0.0))
        .map(|(name, op)| format!("probe row {name} reports {} cycles", op.sim_cyc))
        .collect();
    Outcome {
        sim_cycles: rows.iter().map(|(_, op)| op.sim_cyc).sum::<f64>().round() as u64,
        attempted: rows.len() as u64,
        failed: notes.len() as u64,
        notes,
        counts: MetricsSnapshot::new(),
        product: vec![("paper.err_max_pct", err_max_pct)],
        rings: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use std::time::Instant;

    /// Every workload shape at toy size: runs, checks its own output,
    /// reports simulated time and closes all its phases.
    #[test]
    fn every_workload_runs_clean_at_toy_size() {
        for w in spec::WORKLOADS {
            let shape = Shape::toy(w.name).expect("every listed workload has a shape");
            let rec = Recorder::new(Instant::now());
            let root = rec.open_at_epoch("rep", None);
            let out = run(&shape, 7, false, &rec, root);
            rec.close(root, 0);
            assert_eq!(out.failed, 0, "{}: {:?}", w.name, out.notes);
            assert!(out.attempted >= 1 && out.sim_cycles > 0, "{}", w.name);
            let spans = rec.take();
            for name in [
                "setup",
                "setup.machine_new",
                "setup.spawn",
                "setup.install",
                "run",
                "run.app",
                "run.join",
            ] {
                let s = spans
                    .iter()
                    .find(|s| s.name == name)
                    .unwrap_or_else(|| panic!("{}: no span {name}", w.name));
                assert!(s.host.1 >= s.host.0, "{}: span {name} left open", w.name);
            }
            let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
            assert_eq!(by("setup").host.0, 0, "set-up counts from process start");
            assert_eq!(
                by("setup").host.1,
                by("run").host.0,
                "run starts where set-up ends"
            );
            if !matches!(shape, Shape::PaperMicro { .. }) {
                assert!(out.counts.get("kernel.tlb_hits") > 0, "{}", w.name);
            }
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_kv_run_and_another_seed_another() {
        let shape = Shape::toy("kv_strong_128").unwrap();
        let once = |seed| {
            let rec = Recorder::new(Instant::now());
            let root = rec.open_at_epoch("rep", None);
            let out = run(&shape, seed, false, &rec, root);
            (out.sim_cycles, out.counts, out.product)
        };
        assert_eq!(once(1), once(1));
        assert_ne!(once(1).0, once(2).0);
    }

    #[test]
    fn unknown_workloads_have_no_shape() {
        assert!(Shape::full("laplace_lazy_49").is_none());
        assert!(Shape::toy("").is_none());
    }
}
