//! The assembled machine: off-die RAM, MPBs, TAS registers, GIC, and the
//! deterministic executor that runs per-core programs against them.

use crate::config::SccConfig;
use crate::core::CoreCtx;
use crate::error::HwError;
use crate::exec::{DeadlockUnwind, Scheduler};
use crate::faults::FaultState;
use crate::gic::Gic;
use crate::instr::TraceRing;
use crate::mpb::MpbArray;
use crate::par::{Engine, ParEngine};
use crate::perf::PerfCounters;
use crate::ram::{AtomicWords, FrameOwners, MemMap};
use crate::tas::TasBank;
use crate::timing::Cycles;
use crate::topology::CoreId;
use std::sync::Arc;

/// Shared machine state reachable from every core context.
///
/// Raw accessors on `ram` and `mpb` are un-timed; they exist for
/// wait-condition peeks, harness setup and test assertions. All timed access
/// goes through [`CoreCtx`].
pub struct MachineInner {
    pub cfg: SccConfig,
    pub map: MemMap,
    /// Off-die DDR3 memory.
    pub ram: AtomicWords,
    /// The per-core on-die message-passing buffers.
    pub mpb: MpbArray,
    /// Test-and-set registers.
    pub tas: TasBank,
    /// Global interrupt controller.
    pub gic: Gic,
    /// Host-side exclusive-ownership registry over the shared region's
    /// frames, maintained by the SVM layer and consulted by the parallel
    /// engine's access classifier (unused — all zero — in serial mode).
    pub frame_owners: FrameOwners,
    /// Runtime state of the configured fault-injection plan (empty and
    /// inert by default).
    pub faults: FaultState,
}

/// Per-core outcome of a [`Machine::run_on`] call.
#[derive(Debug)]
pub struct CoreResult<R> {
    pub core: CoreId,
    pub result: R,
    /// The core's virtual clock when its program returned.
    pub clock: Cycles,
    pub perf: PerfCounters,
    /// The core's structured-event ring (empty without the `trace`
    /// feature).
    pub trace: TraceRing,
}

/// The simulated SCC. One `Machine` owns all globally visible state; each
/// call to [`Machine::run_on`] boots a set of cores, runs their programs to
/// completion under the deterministic executor, and returns per-core
/// results. Machine memory persists across invocations, mirroring hardware
/// whose DRAM is not cleared between program runs.
pub struct Machine {
    inner: Arc<MachineInner>,
}

impl Machine {
    /// Build a machine from a validated configuration.
    pub fn new(cfg: SccConfig) -> Result<Machine, HwError> {
        cfg.validate().map_err(HwError::BadConfig)?;
        let map = MemMap::new(&cfg);
        Ok(Machine {
            inner: Arc::new(MachineInner {
                ram: AtomicWords::new(map.ram_bytes()),
                mpb: MpbArray::new(cfg.ncores),
                tas: TasBank::new(cfg.ncores),
                gic: Gic::new(cfg.ncores),
                frame_owners: FrameOwners::new(map.shared_pages()),
                faults: FaultState::new(cfg.faults.clone()),
                map,
                cfg,
            }),
        })
    }

    /// Access to the shared state (for peeks in tests and harnesses).
    pub fn inner(&self) -> &Arc<MachineInner> {
        &self.inner
    }

    /// The machine configuration.
    pub fn cfg(&self) -> &SccConfig {
        &self.inner.cfg
    }

    /// Run `f` on the first `n` cores.
    pub fn run<R, F>(&self, n: usize, f: F) -> Result<Vec<CoreResult<R>>, HwError>
    where
        R: Send,
        F: Fn(&mut CoreCtx) -> R + Send + Sync,
    {
        self.run_on(&self.first_cores(n)?, f)
    }

    /// The ids of the first `n` cores; [`HwError::BadConfig`] when the
    /// machine has fewer.
    pub fn first_cores(&self, n: usize) -> Result<Vec<CoreId>, HwError> {
        (0..n)
            .map(|i| {
                CoreId::try_new(i, &self.inner.cfg.topo)
                    .map_err(|e| HwError::BadConfig(e.to_string()))
            })
            .collect()
    }

    /// Validate a caller's core list for [`Self::run_on`]: non-empty, every
    /// core on this machine, none listed twice. Anything else is
    /// [`HwError::BadConfig`].
    pub fn check_cores(&self, cores: &[CoreId]) -> Result<(), HwError> {
        if cores.is_empty() {
            return Err(HwError::BadConfig("need at least one core".into()));
        }
        let ncores = self.inner.cfg.ncores;
        let mut seen = vec![false; ncores];
        for c in cores {
            if c.idx() >= ncores {
                return Err(HwError::BadConfig(format!(
                    "{c:?} does not exist on this {ncores}-core machine"
                )));
            }
            if std::mem::replace(&mut seen[c.idx()], true) {
                return Err(HwError::BadConfig(format!("{c:?} listed twice")));
            }
        }
        Ok(())
    }

    /// Run `f` on an explicit set of cores (e.g. cores 0 and 30 for the
    /// paper's Figure 7). Results are returned in the order of `cores`.
    pub fn run_on<R, F>(&self, cores: &[CoreId], f: F) -> Result<Vec<CoreResult<R>>, HwError>
    where
        R: Send,
        F: Fn(&mut CoreCtx) -> R + Send + Sync,
    {
        self.check_cores(cores)?;
        let engine = Arc::new(if self.inner.cfg.host_fast.parallel {
            // Fault windows and non-baton elections are defined against
            // the serial reference schedule; the parallel engine replays
            // exactly that schedule and supports nothing else.
            assert!(
                self.inner.cfg.sched.is_baton(),
                "the parallel engine only replays the Baton schedule"
            );
            assert!(
                self.inner.cfg.faults.is_empty(),
                "fault injection requires the serial engine"
            );
            Engine::Parallel(ParEngine::new(cores))
        } else {
            Engine::Serial({
                let sched = Scheduler::with_policy(
                    cores.len(),
                    self.inner.cfg.host_fast.fast_yield,
                    self.inner.cfg.sched.clone(),
                );
                sched.set_election_budget(self.inner.cfg.election_budget);
                sched
            })
        });

        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(cores.len());
            for (slot, &core) in cores.iter().enumerate() {
                let f = &f;
                let inner = Arc::clone(&self.inner);
                let engine = Arc::clone(&engine);
                handles.push(s.spawn(move || {
                    engine.wait_for_turn(slot);
                    let mut ctx = CoreCtx::new(core, slot, inner, Arc::clone(&engine));
                    // A program panic (assertion failure, mailbox retry
                    // exhaustion) would otherwise kill this thread while
                    // it holds the baton, parking every peer forever —
                    // abort the engine so they unwind, then re-raise.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                        || f(&mut ctx),
                    ));
                    let result = match result {
                        Ok(r) => r,
                        Err(p) => {
                            if p.downcast_ref::<DeadlockUnwind>().is_none() {
                                engine.abort(slot);
                            }
                            std::panic::resume_unwind(p);
                        }
                    };
                    ctx.finalize_par_stats();
                    engine.finish(slot);
                    CoreResult {
                        core,
                        result,
                        clock: Cycles(ctx.now()),
                        perf: ctx.perf,
                        trace: ctx.take_trace(),
                    }
                }));
            }
            let mut out = Vec::with_capacity(handles.len());
            let mut panic_payload = None;
            for h in handles {
                match h.join() {
                    Ok(r) => out.push(r),
                    Err(p) => {
                        if p.downcast_ref::<DeadlockUnwind>().is_none() {
                            panic_payload.get_or_insert(p);
                        }
                    }
                }
            }
            // A non-deadlock panic (assertion failure in a core program)
            // takes priority: propagate it so tests fail loudly.
            if let Some(p) = panic_payload {
                std::panic::resume_unwind(p);
            }
            if let Some(err) = engine.deadlock_report() {
                return Err((*err).clone());
            }
            // The park watchdog lives in the scheduler, not in any one
            // core's context; fold its count into the first result so it
            // reaches the metrics registry as `exec.park_watchdog`.
            if let Engine::Serial(sched) = &*engine {
                if let Some(first) = out.first_mut() {
                    first.perf.park_watchdog += sched.park_watchdog_count();
                    first.perf.elections += sched.elections();
                }
            }
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::MemAttr;

    #[test]
    fn two_cores_share_ram() {
        let m = Machine::new(SccConfig::small()).unwrap();
        let shared = m.inner().map.shared_base();
        let res = m
            .run(2, |c| {
                if c.id().idx() == 0 {
                    c.write(shared, 4, 42, MemAttr::UNCACHED);
                    0
                } else {
                    // Wait until core 0's write lands (uncached: immediate).
                    let mach = Arc::clone(c.machine());
                    c.wait_until("the flag word", move || {
                        let v = mach.ram.read(shared, 4);
                        (v != 0).then_some((v, 0))
                    })
                }
            })
            .unwrap();
        assert_eq!(res[1].result, 42);
    }

    #[test]
    fn results_in_core_order() {
        let m = Machine::new(SccConfig::small()).unwrap();
        let cores = [CoreId::new(30), CoreId::new(0), CoreId::new(7)];
        let res = m.run_on(&cores, |c| c.id().idx()).unwrap();
        let got: Vec<usize> = res.iter().map(|r| r.result).collect();
        assert_eq!(got, vec![30, 0, 7]);
    }

    #[test]
    fn deadlock_surfaces_as_error() {
        let m = Machine::new(SccConfig::small()).unwrap();
        let err = m
            .run(2, |c| {
                c.wait_until::<()>("a mail that never arrives", || None);
            })
            .unwrap_err();
        assert!(matches!(err, HwError::Deadlock { .. }));
    }

    #[test]
    fn memory_persists_across_runs() {
        let m = Machine::new(SccConfig::small()).unwrap();
        let shared = m.inner().map.shared_base();
        m.run(1, |c| c.write(shared, 4, 0xCAFE, MemAttr::UNCACHED))
            .unwrap();
        let v = m
            .run(1, |c| c.read(shared, 4, MemAttr::UNCACHED))
            .unwrap()
            .pop()
            .unwrap()
            .result;
        assert_eq!(v, 0xCAFE);
    }

    #[test]
    fn core_panic_unwinds_peers_instead_of_wedging() {
        // Core 1 panics while cores 0 and 2 are parked on conditions that
        // will never hold. Without the abort path the panicking thread
        // dies holding the baton and the peers park forever; with it the
        // run unwinds and the original payload propagates.
        let m = Machine::new(SccConfig::small()).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run(3, |c| {
                if c.id().idx() == 1 {
                    panic!("planted core-program panic");
                }
                c.wait_until::<()>("a flag that is never written", || None);
            })
        }));
        let payload = caught.expect_err("the planted panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("planted core-program panic"), "got: {msg}");
    }

    /// `run_on`'s core list is caller input: every bad list is a typed
    /// `BadConfig` naming the problem, never a panic.
    fn bad_config(r: Result<Vec<CoreResult<()>>, HwError>) -> String {
        match r {
            Err(HwError::BadConfig(msg)) => msg,
            other => panic!("expected BadConfig, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn duplicate_cores_rejected() {
        let m = Machine::new(SccConfig::small()).unwrap();
        let msg = bad_config(m.run_on(&[CoreId::new(1), CoreId::new(1)], |_| ()));
        assert!(msg.contains("listed twice"), "got: {msg}");
    }

    #[test]
    fn empty_core_list_rejected() {
        let m = Machine::new(SccConfig::small()).unwrap();
        let msg = bad_config(m.run_on(&[], |_| ()));
        assert!(msg.contains("at least one core"), "got: {msg}");
        assert!(bad_config(m.run(0, |_| ())).contains("at least one core"));
    }

    #[test]
    fn out_of_range_core_rejected() {
        let m = Machine::new(SccConfig::small()).unwrap();
        let n = m.cfg().ncores;
        let msg = bad_config(m.run_on(&[CoreId::new(0), CoreId::new(n)], |_| ()));
        assert!(msg.contains("does not exist"), "got: {msg}");
        assert!(matches!(m.run(n + 1, |_| ()), Err(HwError::BadConfig(_))));
    }

    #[test]
    fn clocks_are_deterministic() {
        let run = || {
            let m = Machine::new(SccConfig::small()).unwrap();
            let shared = m.inner().map.shared_base();
            let res = m
                .run(4, |c| {
                    let me = c.id().idx() as u32;
                    for i in 0..64u32 {
                        c.write(shared + 4096 * me + 4 * i, 4, i as u64, MemAttr::SHARED_MPBT_WT);
                        let _ = c.read(shared + 4096 * me + 4 * i, 4, MemAttr::SHARED_MPBT_WT);
                    }
                    c.flush_wcb();
                    c.now()
                })
                .unwrap();
            res.into_iter().map(|r| r.result).collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
    }
}
