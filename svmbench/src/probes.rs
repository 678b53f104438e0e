//! Per-layer probes: small core programs of svmbench's own, each a tight
//! loop around one public call of one layer, timed on both clocks.
//!
//! Every probe builds a fresh machine, lets the measuring core warm the
//! path once, then brackets the loop with `Instant::now()` and
//! `CoreCtx::now()`. The result is per operation: host nanoseconds and
//! simulated cycles. The `paper_micro` workload runs the same programs at
//! the paper's sizes; the unit tests run them at toy size.

use crate::span::{Recorder, SpanId};
use metalsvm::{install as svm_install, Consistency, SvmConfig};
use rcce::{allreduce_f64, RcceComm, ReduceOp};
use scc_hw::instr::TraceConfig;
use scc_hw::mpb::MpbArray;
use scc_hw::{CollMode, CoreCtx, CoreId, Machine, MemAttr, SccConfig, Topology};
use scc_kernel::{ram_barrier, Cluster, Kernel};
use scc_kv::{run_kv, KvConfig, LatencyHistogram, Strategy};
use scc_mailbox::{install as mbx_install, MailKind, Notify};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Cost of one operation on both clocks.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Op {
    pub host_ns: f64,
    pub sim_cyc: f64,
}

/// A machine configuration with nothing left to the environment: the
/// topology, the collective mode and the trace setting are all explicit
/// (`SccConfig::default()` would consult `SCC_TOPOLOGY` and `SCC_COLL`).
pub fn machine(topo: Topology, private: usize, shared: usize, trace: TraceConfig) -> SccConfig {
    SccConfig {
        private_bytes_per_core: private,
        shared_bytes: shared,
        coll: CollMode::Tree,
        trace,
        ..SccConfig::default_with(topo)
    }
}

/// The small machine most probes run on.
fn small(topo: Topology) -> SccConfig {
    machine(topo, 256 * 1024, 4 * 1024 * 1024, TraceConfig::disabled())
}

/// Sized as `bench_kv`'s and `bench_scale`'s machines: room for the mail
/// rows of 512 receivers plus the SVM window.
pub fn service_machine(topo: Topology, trace: TraceConfig) -> SccConfig {
    machine(topo, 256 * 1024, 32 * 1024 * 1024, trace)
}

trait SimClock {
    fn sim_now(&self) -> u64;
}

impl SimClock for CoreCtx {
    fn sim_now(&self) -> u64 {
        self.now()
    }
}

impl SimClock for Kernel<'_> {
    fn sim_now(&self) -> u64 {
        self.hw.now()
    }
}

/// Run `call` `calls` times and charge the elapsed time on both clocks to
/// `calls * ops_per_call` operations.
fn timed<C: SimClock>(
    c: &mut C,
    calls: u64,
    ops_per_call: u64,
    mut call: impl FnMut(&mut C, u64),
) -> Op {
    let ops = (calls * ops_per_call) as f64;
    let (t0, s0) = (Instant::now(), c.sim_now());
    for i in 0..calls {
        call(c, i);
    }
    Op {
        host_ns: t0.elapsed().as_nanos() as f64 / ops,
        sim_cyc: (c.sim_now() - s0) as f64 / ops,
    }
}

// ----------------------------------------------------------------------
// hw: CoreCtx::read / write by physical address
// ----------------------------------------------------------------------

/// `hw.read_l1hit`, `hw.read_l2hit`, `hw.read_ddr`, `hw.write_wcb`,
/// `hw.mpb_rw`, in that order. `n` accesses per probe.
pub fn hw_access(n: u64) -> [Op; 5] {
    const LINE: u32 = 32;
    // 64 KiB streams through the 8 KiB L1 and stays in the 256 KiB L2;
    // 1 MiB streams through both.
    const L2_FIT: u32 = 64 * 1024;
    const L2_SPILL: u32 = 1024 * 1024;
    let cfg = SccConfig {
        ncores: 1,
        ..machine(
            Topology::scc48(),
            4 * 1024 * 1024,
            4 * 1024 * 1024,
            TraceConfig::disabled(),
        )
    };
    let m = Machine::new(cfg).expect("probe machine");
    let mut res = m
        .run(1, |c| {
            let private = c.machine().map.private_base(c.id());
            let shared = c.machine().map.shared_base();
            let stream = |c: &mut CoreCtx, base: u32, bytes: u32, n: u64| {
                let lines = u64::from(bytes / LINE);
                // One full pass first: the caches start empty.
                for i in 0..lines {
                    black_box(c.read(base + i as u32 * LINE, 8, MemAttr::PRIVATE_WB));
                }
                timed(c, n, 1, |c, i| {
                    let pa = base + (i % lines) as u32 * LINE;
                    black_box(c.read(pa, 8, MemAttr::PRIVATE_WB));
                })
            };

            black_box(c.read(private, 8, MemAttr::PRIVATE_WB));
            let before = c.perf;
            let l1 = timed(c, n, 1, |c, _| {
                black_box(c.read(private, 8, MemAttr::PRIVATE_WB));
            });
            assert_eq!(
                c.perf.l1_hits - before.l1_hits,
                n,
                "hw.read_l1hit must hit L1"
            );

            let before = c.perf;
            let l2 = stream(c, private + 1024 * 1024, L2_FIT, n);
            let warm = u64::from(L2_FIT / LINE);
            assert_eq!(
                c.perf.l2_hits - before.l2_hits,
                n,
                "hw.read_l2hit must miss L1 and hit L2"
            );
            assert_eq!(c.perf.l2_misses - before.l2_misses, warm);

            let before = c.perf;
            let ddr = stream(c, private + 2 * 1024 * 1024, L2_SPILL, n);
            let warm = u64::from(L2_SPILL / LINE);
            assert_eq!(
                c.perf.l2_misses - before.l2_misses,
                n + warm,
                "hw.read_ddr must miss both caches"
            );

            let wcb = timed(c, n, 1, |c, i| {
                let pa = shared + (i * 8 % u64::from(L2_FIT)) as u32;
                c.write(pa, 8, i, MemAttr::SHARED_MPBT_WT);
            });
            c.flush_wcb();

            let me = c.id();
            let mpb = timed(c, n, 1, |c, i| {
                let pa = MpbArray::pa(me, (i % 64) as usize * LINE as usize);
                c.write(pa, 8, i, MemAttr::MPB);
                black_box(c.read(pa, 8, MemAttr::MPB));
            });
            [l1, l2, ddr, wcb, mpb]
        })
        .expect("hw probe");
    res.remove(0).result
}

// ----------------------------------------------------------------------
// kernel: translation and the RAM barrier
// ----------------------------------------------------------------------

/// `kernel.vread_hit` and `kernel.vread_block`: `n` element reads each of
/// one warm private page. `vread_hit - hw.read_l1hit` is the translation.
pub fn kernel_vread(n: u64) -> [Op; 2] {
    const ELEMS: u64 = 512; // one page of u64
    let cl = Cluster::new(small(Topology::scc48())).expect("probe machine");
    let mut res = cl
        .run(1, |k| {
            let va = k.kalloc_pages(1);
            k.vread_block(va, 8, ELEMS as usize, |_, v| {
                black_box(v);
            });
            let hit = timed(k, n, 1, |k, _| {
                black_box(k.vread(va, 8));
            });
            let block = timed(k, n.div_ceil(ELEMS), ELEMS, |k, _| {
                k.vread_block(va, 8, ELEMS as usize, |_, v| {
                    black_box(v);
                });
            });
            [hit, block]
        })
        .expect("kernel probe");
    res.remove(0).result
}

/// Run `body` on the first `n` cores of `cfg`'s machine. Each core times
/// its own `ops` operations; the cost of one is the slowest core's
/// simulated time and rank 0's host time (every core passes through the
/// same rendezvous, so rank 0's bracket spans all of them).
fn collective(cfg: SccConfig, n: usize, body: impl Fn(&mut Kernel<'_>) -> Op + Send + Sync) -> Op {
    let cl = Cluster::new(cfg).expect("probe machine");
    let res = cl.run(n, body).expect("collective probe");
    Op {
        host_ns: res[0].result.host_ns,
        sim_cyc: res.iter().map(|r| r.result.sim_cyc).fold(0.0, f64::max),
    }
}

/// `kernel.ram_barrier.<n>`: all `n` cores of `topo` in the tree barrier.
pub fn ram_barrier_op(topo: Topology, n: usize, barriers: u64) -> Op {
    collective(service_machine(topo, TraceConfig::disabled()), n, |k| {
        // The first rendezvous pays service initialisation.
        ram_barrier(k, "svmbench.warm");
        timed(k, barriers, 1, |k, _| ram_barrier(k, "svmbench.barrier"))
    })
}

/// `svm.barrier.<n>`: the SVM barrier (flush, rendezvous, invalidate).
pub fn svm_barrier_op(topo: Topology, n: usize, barriers: u64) -> Op {
    collective(small(topo), n, |k| {
        let mbx = mbx_install(k, Notify::Ipi);
        let svm = svm_install(k, &mbx, SvmConfig::default());
        svm.barrier(k);
        timed(k, barriers, 1, |k, _| svm.barrier(k))
    })
}

/// `rcce.allreduce.<n>`: an 8-double tree allreduce over all `n` cores.
pub fn allreduce_op(topo: Topology, n: usize, reps: u64) -> Op {
    collective(small(topo), n, |k| {
        let mut comm = RcceComm::init(k);
        let va = k.kalloc_pages(1);
        for i in 0..8u32 {
            k.vwrite_f64(va + i * 8, k.rank() as f64 + f64::from(i));
        }
        // The first one pays the pipeline and flag initialisation.
        allreduce_f64(k, &mut comm, va, 8, ReduceOp::Sum);
        timed(k, reps, 1, |k, _| {
            allreduce_f64(k, &mut comm, va, 8, ReduceOp::Max)
        })
    })
}

// ----------------------------------------------------------------------
// exec: the cost of one hand-off against the number of blocked cores
// ----------------------------------------------------------------------

/// `exec.handoff.<n>`: cores 0 and 1 alternate `advance(100); yield_now()`
/// while the other `n - 2` sit in `wait_until`. Host nanoseconds per
/// hand-off; the simulated clock has nothing to say here.
pub fn handoff_ns(topo: Topology, n: usize, rounds: u64) -> f64 {
    let cfg = SccConfig {
        ncores: n,
        ..small(topo)
    };
    let m = Machine::new(cfg).expect("probe machine");
    let finished = AtomicUsize::new(0);
    let res = m
        .run(n, |c| {
            if c.id().idx() >= 2 {
                c.wait_until("svmbench: hand-off probe end", || {
                    (finished.load(Ordering::SeqCst) == 2).then_some(((), 0))
                });
                return 0;
            }
            let turn = |c: &mut CoreCtx| {
                c.advance(100);
                c.yield_now();
            };
            // Long enough for every waiter to have taken its first turn
            // and blocked.
            for _ in 0..n as u64 + 16 {
                turn(c);
            }
            let t0 = Instant::now();
            for _ in 0..rounds {
                turn(c);
            }
            let ns = t0.elapsed().as_nanos();
            finished.fetch_add(1, Ordering::SeqCst);
            ns
        })
        .expect("hand-off probe");
    // Core 0's bracket holds its own `rounds` yields and as many of core 1.
    res[0].result as f64 / (2 * rounds) as f64
}

// ----------------------------------------------------------------------
// mbx: the ping-pong of Figures 6 and 7
// ----------------------------------------------------------------------

/// Half round trip between `a` and `b` with `active` cores switched on
/// (the rest of them idle in the kernel). `active` must hold both.
pub fn pingpong(a: CoreId, b: CoreId, active: &[CoreId], notify: Notify, rounds: u64) -> Op {
    let cl = Cluster::new(small(Topology::scc48())).expect("probe machine");
    let done = AtomicBool::new(false);
    let res = cl
        .run_on(active, |k| {
            let mbx = mbx_install(k, notify);
            let me = k.id();
            if me == a {
                // One round first: caches and flags start cold.
                mbx.send(k, b, MailKind::USER, &[0]);
                mbx.recv_from(k, b);
                let op = timed(k, rounds, 2, |k, _| {
                    mbx.send(k, b, MailKind::USER, &[1]);
                    black_box(mbx.recv_from(k, b));
                });
                done.store(true, Ordering::Release);
                op
            } else if me == b {
                for _ in 0..=rounds {
                    mbx.recv_from(k, a);
                    mbx.send(k, a, MailKind::USER, &[2]);
                }
                Op::default()
            } else {
                k.wait_event("svmbench: ping-pong end", || {
                    done.load(Ordering::Acquire).then_some(((), 0))
                });
                Op::default()
            }
        })
        .expect("ping-pong probe");
    res.iter()
        .find(|r| r.core == a)
        .expect("the measuring core ran")
        .result
}

/// The first `n` cores switched on, always with 0 and 30 (Figure 7).
pub fn active_set(n: usize) -> Vec<CoreId> {
    let rest = (1..48).filter(|&c| c != 30).map(CoreId::new);
    [CoreId::new(0), CoreId::new(30)]
        .into_iter()
        .chain(rest)
        .take(n)
        .collect()
}

// ----------------------------------------------------------------------
// rcce: blocking send/recv
// ----------------------------------------------------------------------

/// `rcce.sendrecv_4k`: one 4 KiB `send`/`recv` between two cores.
pub fn rcce_sendrecv(rounds: u64) -> Op {
    const BYTES: u32 = 4096;
    let cl = Cluster::new(small(Topology::scc48())).expect("probe machine");
    let mut res = cl
        .run(2, |k| {
            let mut comm = RcceComm::init(k);
            let va = k.kalloc_pages(1);
            let peer = 1 - comm.ue();
            let mut round = |k: &mut Kernel<'_>| {
                if peer == 1 {
                    rcce::send(k, &mut comm, peer, va, BYTES);
                    rcce::recv(k, &mut comm, peer, va, BYTES);
                } else {
                    rcce::recv(k, &mut comm, peer, va, BYTES);
                    rcce::send(k, &mut comm, peer, va, BYTES);
                }
            };
            round(k);
            timed(k, rounds, 2, |k, _| round(k))
        })
        .expect("rcce probe");
    res.remove(0).result
}

// ----------------------------------------------------------------------
// svm: the rows of Table 1, the lock, the barrier
// ----------------------------------------------------------------------

/// Table 1's rows for one consistency model, per page (per call for the
/// allocation). `retrieve` exists under the strong model only.
#[derive(Copy, Clone, Debug, Default)]
pub struct Table1 {
    pub alloc: Op,
    pub first_touch: Op,
    pub map: Op,
    pub retrieve: Option<Op>,
}

/// §7.2.1 between cores 0 and 30: collective allocation of `bytes`, first
/// touch of every page by core 0, first access by core 30, re-access by
/// core 0. `on_lead` lets a workload mark its phases from rank 0: it is
/// called on entry and again once the SVM system is installed.
pub fn table1(model: Consistency, bytes: u32, on_lead: &(dyn Fn(Lead, u64) + Sync)) -> Table1 {
    let cfg = machine(
        Topology::scc48(),
        256 * 1024,
        16 * 1024 * 1024,
        TraceConfig::disabled(),
    );
    let cl = Cluster::new(cfg).expect("probe machine");
    on_lead(Lead::MachineBuilt, 0);
    let pages = u64::from(bytes / 4096);
    let res = cl
        .run_on(&[CoreId::new(0), CoreId::new(30)], |k| {
            let lead = k.rank() == 0;
            if lead {
                on_lead(Lead::Entered, k.hw.now());
            }
            let mbx = mbx_install(k, Notify::Ipi);
            let mut svm = svm_install(k, &mbx, SvmConfig::default());
            if lead {
                on_lead(Lead::Installed, k.hw.now());
            }
            let mut out = Table1::default();
            let mut region = None;
            out.alloc = timed(k, 1, 1, |k, _| region = Some(svm.alloc(k, bytes, model)));
            let va = region.expect("allocated above").va;
            let touch_all = |k: &mut Kernel<'_>, val: u64| {
                timed(k, 1, pages, |k, _| {
                    for p in 0..pages as u32 {
                        k.vwrite(va + p * 4096, 4, val + u64::from(p));
                    }
                    k.hw.flush_wcb();
                })
            };
            if lead {
                out.first_touch = touch_all(k, 1);
            }
            svm.barrier(k);
            if !lead {
                out.map = touch_all(k, 100);
            }
            svm.barrier(k);
            if lead && model == Consistency::Strong {
                out.retrieve = Some(touch_all(k, 0));
            }
            svm.barrier(k);
            out
        })
        .expect("table 1 probe");
    Table1 {
        map: res[1].result.map,
        ..res[0].result
    }
}

/// The three moments of a run's set-up, in order, that rank 0 (or, for
/// the first, the main thread) reports to whoever records phases.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Lead {
    MachineBuilt = 0,
    Entered = 1,
    Installed = 2,
}

/// For probes nobody watches.
pub fn unobserved(_: Lead, _: u64) {}

/// `svm.lock_pair`: one uncontended `SvmLock` acquire + release (TAS,
/// CL1INVMB, WCB flush) while the peer waits at a barrier.
pub fn svm_lock_pair(n: u64) -> Op {
    let cl = Cluster::new(small(Topology::scc48())).expect("probe machine");
    let mut res = cl
        .run(2, |k| {
            let mbx = mbx_install(k, Notify::Ipi);
            let mut svm = svm_install(k, &mbx, SvmConfig::default());
            let lock = svm.lock_new(k);
            let op = if k.rank() == 0 {
                lock.with(k, |_| ());
                timed(k, n, 1, |k, _| lock.with(k, |_| ()))
            } else {
                Op::default()
            };
            svm.barrier(k);
            op
        })
        .expect("lock probe");
    res.remove(0).result
}

// ----------------------------------------------------------------------
// kv: one request, alone on the machine
// ----------------------------------------------------------------------

/// One server, one client, one kind of operation against one partition,
/// arrivals far enough apart that no request waits for another: the mean
/// latency is the cost of one request. Host time is the client's whole
/// `run_kv` call over the requests, so it carries the (small) fill.
pub fn kv_single_op(strategy: Strategy, get_pct: u8, scan_pct: u8, requests: usize) -> Op {
    let kv = KvConfig {
        servers: 1,
        partitions: vec![strategy],
        keyspace_log2: 6,
        requests_per_client: requests,
        mean_interarrival: 400_000,
        zipf_theta: 0.0,
        get_pct,
        scan_pct,
        scan_len: 16,
        seed: 0x5CC4B,
        record_requests: false,
    };
    let cl = Cluster::new(small(Topology::scc48())).expect("probe machine");
    let res = cl
        .run(2, |k| {
            let mbx = mbx_install(k, Notify::Ipi);
            let mut svm = svm_install(k, &mbx, SvmConfig::default());
            let t0 = Instant::now();
            let out = run_kv(k, &mbx, &mut svm, &kv);
            (out, t0.elapsed().as_nanos())
        })
        .expect("kv probe");
    let (client, ns) = &res[1].result;
    let hist: &LatencyHistogram = &client.hist;
    assert_eq!(
        hist.count(),
        requests as u64,
        "every probe request is served"
    );
    Op {
        host_ns: *ns as f64 / requests as f64,
        sim_cyc: hist.mean(),
    }
}

// ----------------------------------------------------------------------
// bench-side spans: building a machine, spawning and joining its threads
// ----------------------------------------------------------------------

/// Host milliseconds of `Cluster::new` for `cfg`.
pub fn machine_new_ms(cfg: SccConfig) -> f64 {
    let t0 = Instant::now();
    black_box(Cluster::new(cfg).expect("probe machine"));
    t0.elapsed().as_secs_f64() * 1e3
}

/// `exec.spawn_join.<n>`: host milliseconds to spawn one thread per core,
/// run an empty program on each and join them.
pub fn spawn_join_ms(topo: Topology) -> f64 {
    let m = Machine::new(small(topo)).expect("probe machine");
    let t0 = Instant::now();
    m.run(topo.num_cores(), |_| ()).expect("empty program");
    t0.elapsed().as_secs_f64() * 1e3
}

// ----------------------------------------------------------------------
// The whole set, by metric name
// ----------------------------------------------------------------------

/// How much work each probe does. `FULL` is what the traced run uses; the
/// tests use `TOY`.
#[derive(Copy, Clone, Debug)]
pub struct Size {
    pub accesses: u64,
    pub rounds: u64,
    pub collectives: u64,
    pub table1_bytes: u32,
    pub kv_requests: usize,
    pub big: bool,
}

impl Size {
    pub const FULL: Size = Size {
        accesses: 1_000_000,
        rounds: 400,
        collectives: 8,
        table1_bytes: 4 * 1024 * 1024,
        kv_requests: 300,
        big: true,
    };
    #[cfg(test)]
    pub const TOY: Size = Size {
        accesses: 4_096,
        rounds: 10,
        collectives: 2,
        table1_bytes: 64 * 1024,
        kv_requests: 20,
        big: false,
    };
}

/// Run every probe once; `(metric name, value)` for each per-layer probe
/// metric in `spec`, with one span per probe under `parent`. With `big`
/// off the 512-core probes run on 48 cores — the names stay, so the tests
/// cover the same table.
pub fn run_all(size: Size, rec: &Recorder, parent: SpanId) -> Vec<(String, f64)> {
    let scc = Topology::scc48();
    let (big_topo, big_n) = if size.big {
        (Topology::mesh16x32(), 512)
    } else {
        (scc, 48)
    };
    let mut out: Vec<(String, f64)> = Vec::new();
    let both = |out: &mut Vec<(String, f64)>, name: &str, op: Op| {
        out.push((format!("{name}.host_ns"), op.host_ns));
        out.push((format!("{name}.sim_cyc"), op.sim_cyc));
    };
    macro_rules! probe {
        ($name:expr, $e:expr) => {{
            let id = rec.open($name, Some(parent), 0);
            let v = $e;
            rec.close(id, 0);
            v
        }};
    }

    let hw = probe!("probe.hw.access", hw_access(size.accesses));
    for (name, op) in [
        "hw.read_l1hit",
        "hw.read_l2hit",
        "hw.read_ddr",
        "hw.write_wcb",
        "hw.mpb_rw",
    ]
    .into_iter()
    .zip(hw)
    {
        both(&mut out, name, op);
    }
    let kr = probe!("probe.kernel.vread", kernel_vread(size.accesses));
    both(&mut out, "kernel.vread_hit", kr[0]);
    both(&mut out, "kernel.vread_block", kr[1]);
    let op = probe!(
        "probe.kernel.ram_barrier.48",
        ram_barrier_op(scc, 48, size.collectives)
    );
    both(&mut out, "kernel.ram_barrier.48", op);
    let op = probe!(
        "probe.kernel.ram_barrier.512",
        ram_barrier_op(big_topo, big_n, size.collectives)
    );
    both(&mut out, "kernel.ram_barrier.512", op);

    for (name, topo, n) in [
        ("exec.handoff.2", scc, 2),
        ("exec.handoff.48", scc, 48),
        ("exec.handoff.512", big_topo, big_n),
    ] {
        let ns = probe!(
            &format!("probe.{name}"),
            handoff_ns(topo, n, size.rounds * 10)
        );
        out.push((format!("{name}.host_ns"), ns));
    }

    let (a, b) = (CoreId::new(0), CoreId::new(30));
    for (name, active, notify) in [
        ("mbx.pingpong_poll", 2, Notify::Poll),
        ("mbx.pingpong_ipi", 2, Notify::Ipi),
        ("mbx.pingpong_poll.48", 48, Notify::Poll),
    ] {
        let op = probe!(
            &format!("probe.{name}"),
            pingpong(a, b, &active_set(active), notify, size.rounds)
        );
        both(&mut out, name, op);
    }

    let op = probe!("probe.rcce.sendrecv_4k", rcce_sendrecv(size.rounds));
    both(&mut out, "rcce.sendrecv_4k", op);
    let op = probe!(
        "probe.rcce.allreduce.48",
        allreduce_op(scc, 48, size.collectives)
    );
    both(&mut out, "rcce.allreduce.48", op);

    let strong = probe!(
        "probe.svm.table1.strong",
        table1(Consistency::Strong, size.table1_bytes, &unobserved)
    );
    let lazy = probe!(
        "probe.svm.table1.lazy",
        table1(Consistency::LazyRelease, size.table1_bytes, &unobserved)
    );
    both(&mut out, "svm.alloc_4m", strong.alloc);
    both(&mut out, "svm.first_touch", strong.first_touch);
    both(&mut out, "svm.map_strong", strong.map);
    both(&mut out, "svm.map_lazy", lazy.map);
    both(
        &mut out,
        "svm.retrieve",
        strong.retrieve.expect("strong model"),
    );
    let op = probe!("probe.svm.lock_pair", svm_lock_pair(size.rounds * 10));
    both(&mut out, "svm.lock_pair", op);
    let op = probe!(
        "probe.svm.barrier.48",
        svm_barrier_op(scc, 48, size.collectives)
    );
    both(&mut out, "svm.barrier.48", op);

    for (name, strategy, get, scan) in [
        ("kv.get_sealed", Strategy::Sealed, 100, 0),
        ("kv.put_lrc", Strategy::Lrc, 0, 0),
        ("kv.scan_strong", Strategy::Strong, 0, 100),
    ] {
        let op = probe!(
            &format!("probe.{name}"),
            kv_single_op(strategy, get, scan, size.kv_requests)
        );
        both(&mut out, name, op);
    }

    let laplace_sized = machine(
        scc,
        2 * 1024 * 1024 + 64 * 1024,
        64 << 20,
        TraceConfig::disabled(),
    );
    let ms = probe!("probe.hw.machine_new.48", machine_new_ms(laplace_sized));
    out.push(("hw.machine_new.48.host_ms".into(), ms));
    let ms = probe!(
        "probe.hw.machine_new.512",
        machine_new_ms(service_machine(big_topo, TraceConfig::disabled()))
    );
    out.push(("hw.machine_new.512.host_ms".into(), ms));
    let ms = probe!("probe.exec.spawn_join.512", spawn_join_ms(big_topo));
    out.push(("exec.spawn_join.512.host_ms".into(), ms));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_probes_cover_every_probe_metric_with_positive_values() {
        let rec = Recorder::new(Instant::now());
        let root = rec.open_at_epoch("probes", None);
        let got = run_all(Size::TOY, &rec, root);
        assert!(rec.take().len() > 20, "one span per probe");
        let want: Vec<&str> = crate::spec::per_layer()
            .iter()
            .filter(|m| m.source == crate::spec::Source::Probe)
            .map(|m| m.name)
            .collect();
        let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names, want,
            "probe output and spec must list the same names"
        );
        for (name, v) in &got {
            assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
        }
    }

    #[test]
    fn cache_probes_order_as_the_hierarchy_does() {
        let [l1, l2, ddr, ..] = hw_access(4_096);
        assert!(
            l1.sim_cyc < l2.sim_cyc && l2.sim_cyc < ddr.sim_cyc,
            "{l1:?} {l2:?} {ddr:?}"
        );
    }

    #[test]
    fn table1_keeps_the_papers_shape_at_toy_size() {
        let s = table1(Consistency::Strong, 64 * 1024, &unobserved);
        let l = table1(Consistency::LazyRelease, 64 * 1024, &unobserved);
        assert!(s.first_touch.sim_cyc > s.map.sim_cyc);
        assert!(l.map.sim_cyc < s.map.sim_cyc);
        assert!(l.retrieve.is_none());
        assert!(s.retrieve.unwrap().sim_cyc < s.map.sim_cyc);
    }
}
