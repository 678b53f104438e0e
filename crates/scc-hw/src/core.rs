//! The per-core execution context: virtual clock, private cache hierarchy,
//! and the memory engine that charges calibrated costs for every access.
//!
//! A [`CoreCtx`] is handed to each simulated core's program by
//! [`crate::Machine::run_on`]. All methods that touch memory advance the
//! core's virtual clock; *raw* `peek`/`poke` accessors (on [`crate::Machine`])
//! exist for wait conditions and test assertions and are free.

use crate::cache::{Cache, Wcb, WcbFlush};
use crate::config::{LINE_BYTES, PAGE_BYTES};
use crate::error::HwError;
use crate::instr::{EventKind, TraceRing};
use crate::machine::MachineInner;
use crate::par::Engine;
use crate::perf::PerfCounters;
use crate::ram::{Backing, MPB_PA_BASE};
use crate::timing::{pack_key, TimingParams};
use crate::topology::{CoreId, Topology};
use std::sync::Arc;

/// Cacheability attributes of one access, normally derived from a page-table
/// entry by the kernel layer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemAttr {
    /// May be cached in L1.
    pub l1: bool,
    /// May be cached in L2 (the SCC bypasses L2 for MPBT-tagged pages).
    pub l2: bool,
    /// Write-back (private memory) vs write-through (shared memory).
    pub write_back: bool,
    /// Tagged with the SCC's new MPBT memory type: L2 bypassed, lines
    /// invalidated by `CL1INVMB`, stores combined in the WCB.
    pub mpbt: bool,
}

impl MemAttr {
    /// Private off-die memory: full L1+L2, write-back.
    pub const PRIVATE_WB: MemAttr = MemAttr {
        l1: true,
        l2: true,
        write_back: true,
        mpbt: false,
    };
    /// Shared memory under MetalSVM: L1 only, write-through, MPBT tag,
    /// stores combined by the WCB.
    pub const SHARED_MPBT_WT: MemAttr = MemAttr {
        l1: true,
        l2: false,
        write_back: false,
        mpbt: true,
    };
    /// Read-only shared region after the collective `mprotect` of §6.4:
    /// MPBT cleared, L2 re-enabled, still write-through (writes trap anyway).
    pub const SHARED_RO_L2: MemAttr = MemAttr {
        l1: true,
        l2: true,
        write_back: false,
        mpbt: false,
    };
    /// The MPB itself: L1-cacheable with MPBT tag, no L2.
    pub const MPB: MemAttr = MemAttr {
        l1: true,
        l2: false,
        write_back: false,
        mpbt: true,
    };
    /// Uncacheable (device registers, the SVM ownership vector, the default
    /// for the SCC's shared region under Intel's stock configuration).
    pub const UNCACHED: MemAttr = MemAttr {
        l1: false,
        l2: false,
        write_back: false,
        mpbt: false,
    };
}

/// Execution context of one simulated core.
pub struct CoreCtx {
    id: CoreId,
    slot: usize,
    clock: u64,
    next_yield: u64,
    l1: Cache,
    l2: Cache,
    wcb: Wcb,
    /// Copies of `mach.cfg.timing` / `mach.cfg.quantum_cycles`: the memory
    /// model reads these on every access, and a local copy avoids chasing
    /// the `Arc` on the hot path.
    timing: TimingParams,
    quantum: u64,
    /// Copy of `mach.cfg.topo` (16 bytes): hop distances feed every memory
    /// cost, so geometry lookups must not chase the `Arc` either.
    topo: Topology,
    /// Hardware event counters for this core.
    pub perf: PerfCounters,
    /// Structured-event ring for this core (zero-sized without the `trace`
    /// feature).
    ring: TraceRing,
    /// Pages already reported to the ring since the last sync action
    /// (key = `page << 1 | is_write`); see [`CoreCtx::trace_svm_access`].
    #[cfg(feature = "trace")]
    svm_access_memo: std::collections::HashSet<u64>,
    /// Last page put in `svm_access_memo`, per kind (index = `is_write`);
    /// `u32::MAX` when none since the last sync action.
    #[cfg(feature = "trace")]
    svm_access_last: [u32; 2],
    mach: Arc<MachineInner>,
    sched: Arc<Engine>,
    /// True under the parallel conservative engine: every globally visible
    /// operation must pass a demotion check or hold the open window (see
    /// [`crate::par`]).
    par: bool,
    /// Election key of the current scheduling segment (the clock published
    /// when the previous segment ended) — the *true* current key, which may
    /// run ahead of the engine's retired view. Parallel engine only.
    seg_key: u64,
    /// Demoted visible operations since the last locked engine interaction
    /// (the running epoch length; folded into the histogram counters at
    /// every epoch close).
    epoch_len: u64,
    /// Cached `!mach.cfg.faults.is_empty()` so the fault-injection hooks
    /// cost one predictable branch on the hot paths.
    has_faults: bool,
    /// Cached region bounds for the private/visible access classifier.
    shared_base: u32,
    priv_base: u32,
    priv_end: u32,
}

/// Extend the running epoch by one demoted operation (free functions so
/// they can run under a live borrow of `CoreCtx::sched`).
#[inline]
fn bump_epoch(perf: &mut PerfCounters, epoch_len: &mut u64) {
    if *epoch_len == 0 {
        perf.par_epochs += 1;
    }
    *epoch_len += 1;
}

/// Close the running epoch, folding its length into the histogram buckets.
#[inline]
fn close_epoch(perf: &mut PerfCounters, epoch_len: &mut u64) {
    let n = std::mem::take(epoch_len);
    match n {
        0 => {}
        1 => perf.par_epoch_len_1 += 1,
        2..=3 => perf.par_epoch_len_2_3 += 1,
        4..=7 => perf.par_epoch_len_4_7 += 1,
        8..=15 => perf.par_epoch_len_8_15 += 1,
        16..=63 => perf.par_epoch_len_16_63 += 1,
        _ => perf.par_epoch_len_64 += 1,
    }
}

impl CoreCtx {
    pub(crate) fn new(
        id: CoreId,
        slot: usize,
        mach: Arc<MachineInner>,
        sched: Arc<Engine>,
    ) -> Self {
        let quantum = mach.cfg.quantum_cycles;
        let par = matches!(&*sched, Engine::Parallel(_));
        let has_faults = !mach.faults.is_empty();
        let priv_base = mach.map.private_base(id);
        CoreCtx {
            id,
            slot,
            clock: 0,
            next_yield: quantum,
            l1: Cache::new(mach.cfg.l1),
            l2: Cache::new(mach.cfg.l2),
            wcb: Wcb::new(),
            timing: mach.cfg.timing.clone(),
            quantum,
            topo: mach.cfg.topo,
            perf: PerfCounters::default(),
            ring: TraceRing::new(&mach.cfg.trace),
            #[cfg(feature = "trace")]
            svm_access_memo: std::collections::HashSet::new(),
            #[cfg(feature = "trace")]
            svm_access_last: [u32::MAX; 2],
            shared_base: mach.map.shared_base(),
            priv_base,
            priv_end: priv_base + mach.map.private_bytes(),
            mach,
            sched,
            par,
            seg_key: 0,
            epoch_len: 0,
            has_faults,
        }
    }

    /// Record a structured trace event stamped with this core's current
    /// simulated clock. Compiles to nothing without the `trace` feature;
    /// call sites stay unconditional. Never touches the virtual clock.
    #[inline(always)]
    pub fn trace(&mut self, kind: EventKind, a: u32, b: u32) {
        self.ring.record(self.clock, kind, a, b);
    }

    /// [`CoreCtx::trace`] with the third payload slot (correlation ids,
    /// model tags).
    #[inline(always)]
    pub fn trace3(&mut self, kind: EventKind, a: u32, b: u32, c: u32) {
        self.ring.record3(self.clock, kind, a, b, c);
    }

    /// Record an SVM shared-page access for the consistency checker,
    /// deduplicated per synchronisation segment: the first read and the
    /// first write of each page between two sync actions are recorded,
    /// repeats are dropped (a core's happens-before state is constant
    /// within a segment, so the duplicates carry no extra information —
    /// but they would swamp the rings). No-op without the `trace` feature.
    ///
    /// Two checks run before the set: a ring that will not record the
    /// kind skips it, and a repeat of the kind's last page (Laplace
    /// alternates reads of one page with writes of another) skips it too.
    #[inline(always)]
    #[allow(unused_variables)]
    pub fn trace_svm_access(&mut self, page: u32, write: bool) {
        #[cfg(feature = "trace")]
        {
            let kind = if write {
                EventKind::SvmWrite
            } else {
                EventKind::SvmRead
            };
            let last = &mut self.svm_access_last[write as usize];
            if *last == page || !self.ring.records(kind) {
                return;
            }
            *last = page;
            if self.svm_access_memo.insert(((page as u64) << 1) | write as u64) {
                self.ring.record(self.clock, kind, page, 0);
            }
        }
    }

    /// Open a new synchronisation segment for the access memo: called by
    /// the SVM layer at every acquire, release and barrier, so
    /// [`CoreCtx::trace_svm_access`] records afresh. No-op without the
    /// `trace` feature.
    #[inline(always)]
    pub fn trace_sync_reset(&mut self) {
        #[cfg(feature = "trace")]
        {
            self.svm_access_memo.clear();
            self.svm_access_last = [u32::MAX; 2];
        }
    }

    /// This core's trace ring (empty without the `trace` feature).
    pub fn trace_ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Detach the trace ring (used by the machine when a core's program
    /// finishes, to carry the events out in its `CoreResult`).
    pub(crate) fn take_trace(&mut self) -> TraceRing {
        std::mem::take(&mut self.ring)
    }

    /// This core's id.
    #[inline]
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The machine shape this core runs on.
    #[inline]
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The machine this core belongs to.
    #[inline]
    pub fn machine(&self) -> &Arc<MachineInner> {
        &self.mach
    }

    /// Current virtual time in core cycles.
    #[inline]
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Advance the virtual clock (compute time, handler overheads, ...).
    #[inline]
    pub fn advance(&mut self, cycles: u64) {
        self.clock += cycles;
        if self.clock >= self.next_yield {
            self.yield_now();
        }
    }

    /// Voluntarily end the current scheduling segment: under the serial
    /// executor this hands the baton to the globally minimal core; under
    /// the parallel engine it publishes the segment end (and keeps running
    /// ahead).
    pub fn yield_now(&mut self) {
        if self.has_faults {
            // An armed freeze window makes no progress "during" it: the
            // clock jumps past the window at this yield point, so the
            // core loses every election until the window ends.
            self.clock += self.mach.faults.freeze_jump(self.id.idx(), self.clock);
        }
        self.perf.yields += 1;
        match &*self.sched {
            Engine::Serial(s) => {
                if s.yield_now(self.slot, self.clock) {
                    self.perf.fast_yields += 1;
                }
            }
            Engine::Parallel(p) => {
                self.perf.par_windows += 1;
                close_epoch(&mut self.perf, &mut self.epoch_len);
                p.yield_now(self.slot, self.clock);
                self.seg_key = self.clock;
            }
        }
        self.next_yield = self.clock + self.quantum;
    }

    /// Jump the clock forward to at least `stamp` (event delivery).
    #[inline]
    pub fn sync_to(&mut self, stamp: u64) {
        self.clock = self.clock.max(stamp);
    }

    /// Block until `cond` yields a value. `cond` must be side-effect-free
    /// and use only raw (`peek`-style) accessors; it runs with the scheduler
    /// lock held. The `u64` it returns is the event stamp; the clock is
    /// advanced to it (the caller charges delivery latency on top).
    pub fn wait_until<T: Send>(
        &mut self,
        reason: &'static str,
        cond: impl FnMut() -> Option<(T, u64)> + Send,
    ) -> T {
        self.perf.blocks += 1;
        self.trace(EventKind::BlockEnter, 0, 0);
        let (v, stamp) = match &*self.sched {
            Engine::Serial(s) => s.wait_blocked(self.slot, self.clock, reason, cond),
            Engine::Parallel(p) => {
                self.perf.par_windows += 1;
                close_epoch(&mut self.perf, &mut self.epoch_len);
                // The block clock is the next segment's election key.
                self.seg_key = self.clock;
                p.wait_blocked(self.slot, self.clock, reason, cond)
            }
        };
        self.sync_to(stamp);
        self.next_yield = self.clock + self.quantum;
        self.trace(EventKind::BlockExit, 0, 0);
        v
    }

    // ------------------------------------------------------------------
    // Parallel-engine access classification
    // ------------------------------------------------------------------

    /// May this core touch `pa` outside the safe window? True for its own
    /// private region and for shared frames it is the registered exclusive
    /// owner of (strong-model SVM pages mapped on exactly one core). The
    /// MPB, other cores' private regions and unowned shared memory are
    /// globally visible.
    #[inline]
    fn is_core_private(&self, pa: u32) -> bool {
        if pa >= MPB_PA_BASE {
            return false;
        }
        if pa < self.shared_base {
            return pa >= self.priv_base && pa < self.priv_end;
        }
        let frame = ((pa - self.shared_base) as usize) / PAGE_BYTES;
        self.mach.frame_owners.owned_by(frame, self.id.idx())
    }

    /// Order this core's next globally visible operation (parallel engine
    /// only). Fast paths first: holding the open window or sitting at the
    /// published floor licenses the operation lock-free (a **demoted**
    /// order point, extending the running epoch). Otherwise this is a
    /// **conflict**: the epoch closes and the core takes the engine lock,
    /// returning once it holds the window. Free in simulated time.
    #[inline]
    fn host_sync(&mut self) {
        if let Engine::Parallel(p) = &*self.sched {
            self.perf.par_visible_ops += 1;
            if p.window_open_for(self.slot) || p.at_floor(pack_key(self.seg_key, self.slot)) {
                self.perf.par_demoted_ops += 1;
                bump_epoch(&mut self.perf, &mut self.epoch_len);
                return;
            }
            self.perf.par_conflicts += 1;
            close_epoch(&mut self.perf, &mut self.epoch_len);
            if p.visible(self.slot) {
                self.perf.par_horizon_stalls += 1;
            }
        }
    }

    /// Gate an access to `pa` on the safe window unless it is core-private.
    /// No-op under the serial executor.
    #[inline]
    fn sync_visible(&mut self, pa: u32) {
        if self.par && !self.is_core_private(pa) {
            self.host_sync();
        }
    }

    /// Public order-point for host-side shared structures (bump allocators,
    /// raw flag peeks that precede timed accesses): under the parallel
    /// engine the caller's next host-side effect lands in deterministic
    /// election order (demoted lock-free when a fast path proves the
    /// absence of conflict). No-op (and free) under the serial executor.
    #[inline]
    pub fn host_order_point(&mut self) {
        if self.par {
            self.host_sync();
        }
    }

    /// Order point for a *read-only* peek of an object whose only possible
    /// writers are this core and `writer` — a mailbox slot's flag word, an
    /// iRCCE pipeline flag. On top of the generic window/floor fast paths,
    /// this demotes through the per-object sequence check: when every
    /// serially-prior write of `writer` has provably retired, the peek
    /// cannot race anything and resolves lock-free (DESIGN.md §8). The
    /// caller must not *write* under this order point, and must name the
    /// object's single possible other writer. No-op under the serial
    /// executor.
    #[inline]
    pub fn host_order_point_peer(&mut self, writer: CoreId) {
        if let Engine::Parallel(p) = &*self.sched {
            self.perf.par_visible_ops += 1;
            let packed = pack_key(self.seg_key, self.slot);
            if writer == self.id
                || p.window_open_for(self.slot)
                || p.at_floor(packed)
                || p.peer_clear(packed, writer)
            {
                self.perf.par_demoted_ops += 1;
                bump_epoch(&mut self.perf, &mut self.epoch_len);
                return;
            }
            self.perf.par_conflicts += 1;
            close_epoch(&mut self.perf, &mut self.epoch_len);
            if p.visible(self.slot) {
                self.perf.par_horizon_stalls += 1;
            }
        }
    }

    /// Fold end-of-run parallel-engine statistics into this core's perf
    /// counters: the trailing epoch and the host nanoseconds its thread
    /// spent parked. Called by the machine after the program returns.
    pub(crate) fn finalize_par_stats(&mut self) {
        close_epoch(&mut self.perf, &mut self.epoch_len);
        if let Engine::Parallel(p) = &*self.sched {
            self.perf.par_park_ns = p.park_ns(self.slot);
        }
    }

    // ------------------------------------------------------------------
    // Shared-frame ownership registry (host-side, free)
    // ------------------------------------------------------------------

    /// Index of `pfn` (an absolute physical frame number) in the shared
    /// region's ownership registry.
    #[inline]
    fn shared_frame_index(&self, pfn: u32) -> Option<usize> {
        let pa = (pfn as u64) * PAGE_BYTES as u64;
        if pa < self.shared_base as u64 {
            return None;
        }
        let idx = ((pa - self.shared_base as u64) as usize) / PAGE_BYTES;
        (idx < self.mach.frame_owners.len()).then_some(idx)
    }

    /// Register this core as exclusive owner of shared frame `pfn`: its
    /// accesses to the frame become core-private under the parallel engine.
    /// Callers must guarantee protocol-level exclusivity (strong-model SVM
    /// ownership). Host-side bookkeeping only — free in simulated time,
    /// no-op for non-shared frames.
    pub fn frame_claim_exclusive(&mut self, pfn: u32) {
        if let Some(idx) = self.shared_frame_index(pfn) {
            self.mach.frame_owners.claim(idx, self.id.idx());
            self.trace(EventKind::FrameOwner, pfn, self.id.idx() as u32);
        }
    }

    /// Hand exclusive ownership of shared frame `pfn` to core `to` (called
    /// by the *current* owner while granting the page away).
    pub fn frame_transfer_exclusive(&mut self, pfn: u32, to: CoreId) {
        if let Some(idx) = self.shared_frame_index(pfn) {
            self.mach.frame_owners.claim(idx, to.idx());
            self.trace(EventKind::FrameOwner, pfn, to.idx() as u32);
        }
    }

    /// Drop any exclusivity claim on shared frame `pfn` (frame freed or
    /// page demoted to a shared mapping).
    pub fn frame_release_exclusive(&mut self, pfn: u32) {
        if let Some(idx) = self.shared_frame_index(pfn) {
            self.mach.frame_owners.release(idx);
            self.trace(EventKind::FrameOwner, pfn, u32::MAX);
        }
    }

    // ------------------------------------------------------------------
    // Cost helpers
    // ------------------------------------------------------------------

    /// Cost of one word-granular access to `pa` (uncached path).
    #[inline]
    fn word_cost(&self, pa: u32) -> u64 {
        let t = &self.timing;
        match self.mach.map.resolve(pa) {
            Backing::Ram { mc } => t.ddr_word_cost(self.topo.hops_to_mc(self.id, mc)),
            Backing::Mpb { owner } => t.mpb_cost(self.topo.hops(self.id, owner)),
        }
    }

    /// Cost of one 32-byte line transfer from/to `pa`'s device.
    #[inline]
    fn line_cost(&self, pa: u32) -> u64 {
        let t = &self.timing;
        match self.mach.map.resolve(pa) {
            Backing::Ram { mc } => t.ddr_line_cost(self.topo.hops_to_mc(self.id, mc)),
            Backing::Mpb { owner } => t.mpb_cost(self.topo.hops(self.id, owner)),
        }
    }

    // ------------------------------------------------------------------
    // Backing-store plumbing (functional, no cost)
    // ------------------------------------------------------------------

    #[inline]
    fn backing_read(&mut self, pa: u32, len: usize) -> u64 {
        self.sync_visible(pa);
        match self.mach.map.resolve(pa) {
            Backing::Ram { .. } => {
                self.perf.ram_reads += 1;
                self.mach.ram.read(pa, len)
            }
            Backing::Mpb { .. } => {
                self.perf.mpb_reads += 1;
                self.mach.mpb.read(pa, len)
            }
        }
    }

    #[inline]
    fn backing_write(&mut self, pa: u32, len: usize, val: u64) {
        self.sync_visible(pa);
        match self.mach.map.resolve(pa) {
            Backing::Ram { .. } => {
                self.perf.ram_writes += 1;
                self.mach.ram.write(pa, len, val)
            }
            Backing::Mpb { .. } => {
                self.perf.mpb_writes += 1;
                self.mach.mpb.note_write(pa, pack_key(self.clock, self.slot));
                self.mach.mpb.write(pa, len, val)
            }
        }
    }

    fn backing_line(&mut self, la: u32) -> [u8; LINE_BYTES] {
        let base = la * LINE_BYTES as u32;
        self.sync_visible(base);
        match self.mach.map.resolve(base) {
            Backing::Ram { .. } => {
                self.perf.ram_reads += 1;
                self.mach.ram.read_line(base)
            }
            Backing::Mpb { .. } => {
                self.perf.mpb_reads += 1;
                self.mach.mpb.read_line(base)
            }
        }
    }

    fn apply_wcb_flush(&mut self, f: WcbFlush) {
        let base = f.line * LINE_BYTES as u32;
        self.perf.wcb_flushes += 1;
        self.trace(EventKind::WcbFlush, f.line, 0);
        self.sync_visible(base);
        match self.mach.map.resolve(base) {
            Backing::Ram { .. } => {
                self.mach.ram.write_line_masked(base, &f.data, f.mask);
                self.perf.ram_writes += 1;
            }
            Backing::Mpb { .. } => {
                self.mach.mpb.note_write(base, pack_key(self.clock, self.slot));
                self.mach.mpb.write_line_masked(base, &f.data, f.mask);
                self.perf.mpb_writes += 1;
            }
        }
        let cost = self.line_cost(base);
        self.advance(cost);
    }

    /// Final writeback of a dirty line to off-die memory (L2 victims, or L1
    /// victims whose line is not in the L2).
    fn writeback_line(&mut self, line: u32, data: [u8; LINE_BYTES]) {
        let base = line * LINE_BYTES as u32;
        self.sync_visible(base);
        self.mach.ram.write_line(base, &data);
        self.perf.ram_writes += 1;
        let cost = self.line_cost(base);
        self.advance(cost);
    }

    /// Writeback of a dirty **L1** victim: it must land in the L2 copy if
    /// one exists (otherwise a later L1 miss would hit the L2's stale
    /// data), and go to memory only when the L2 does not hold the line.
    fn writeback_l1_victim(&mut self, line: u32, data: [u8; LINE_BYTES]) {
        if self.l2.absorb_writeback(line, data) {
            let c = self.timing.l2_hit;
            self.advance(c);
        } else {
            self.writeback_line(line, data);
        }
    }

    // ------------------------------------------------------------------
    // The memory engine
    // ------------------------------------------------------------------

    /// Timed read of `len` (1..=8) bytes at physical address `pa`.
    #[inline]
    pub fn read(&mut self, pa: u32, len: usize, attr: MemAttr) -> u64 {
        debug_assert!((1..=8).contains(&len));
        // Split accesses that straddle a cache line (rare, unaligned).
        let off = (pa as usize) % LINE_BYTES;
        if off + len > LINE_BYTES {
            let first = LINE_BYTES - off;
            let lo = self.read(pa, first, attr);
            let hi = self.read(pa + first as u32, len - first, attr);
            return lo | (hi << (first * 8));
        }
        let la = pa / LINE_BYTES as u32;
        let t_l1_hit = self.timing.l1_hit;
        let t_l2_hit = self.timing.l2_hit;

        let val = if !attr.l1 {
            let cost = self.word_cost(pa);
            self.advance(cost);
            self.backing_read(pa, len)
        } else if let Some(v) = self.l1.read(la, off, len) {
            self.perf.l1_hits += 1;
            self.advance(t_l1_hit);
            v
        } else {
            self.perf.l1_misses += 1;
            // L1 miss: consult L2 unless this is an MPBT access.
            let line = if attr.l2 {
                if let Some(data) = self.l2.peek_line(la) {
                    self.perf.l2_hits += 1;
                    self.l2.read(la, 0, 1); // LRU touch
                    self.advance(t_l2_hit);
                    data
                } else {
                    self.perf.l2_misses += 1;
                    let cost = self.line_cost(pa);
                    self.advance(cost);
                    let data = self.backing_line(la);
                    if let Some(wb) = self.l2.fill(la, data, attr.mpbt) {
                        self.writeback_line(wb.line, wb.data);
                    }
                    data
                }
            } else {
                let cost = self.line_cost(pa);
                self.advance(cost);
                self.backing_line(la)
            };
            if let Some(wb) = self.l1.fill(la, line, attr.mpbt) {
                self.writeback_l1_victim(wb.line, wb.data);
            }
            let mut v = 0u64;
            for k in 0..len {
                v |= (line[off + k] as u64) << (k * 8);
            }
            v
        };
        // The core snoops its own write-combine buffer.
        self.wcb.overlay(la, off, len, val)
    }

    /// Timed write of the low `len` (1..=8) bytes of `val` at `pa`.
    #[inline]
    pub fn write(&mut self, pa: u32, len: usize, val: u64, attr: MemAttr) {
        debug_assert!((1..=8).contains(&len));
        let off = (pa as usize) % LINE_BYTES;
        if off + len > LINE_BYTES {
            let first = LINE_BYTES - off;
            self.write(pa, first, val, attr);
            self.write(
                pa + first as u32,
                len - first,
                val >> (first * 8),
                attr,
            );
            return;
        }
        let la = pa / LINE_BYTES as u32;
        let t_l1_hit = self.timing.l1_hit;

        if !attr.l1 {
            let cost = self.word_cost(pa);
            self.advance(cost);
            self.backing_write(pa, len, val);
            return;
        }

        if attr.write_back {
            // Private memory: write-back, no write-allocate (P54C).
            if self.l1.write_if_present(la, off, len, val, false) {
                self.advance(t_l1_hit);
            } else if attr.l2 && self.l2.write_if_present(la, off, len, val, false) {
                self.perf.l2_hits += 1;
                let c = self.timing.l2_hit;
                self.advance(c);
            } else {
                let cost = self.word_cost(pa);
                self.advance(cost);
                self.backing_write(pa, len, val);
            }
            return;
        }

        // Write-through path: keep any cached copies in this core's caches
        // up to date (they stay clean), then push the store down.
        self.l1.write_if_present(la, off, len, val, true);
        if attr.l2 {
            self.l2.write_if_present(la, off, len, val, true);
        }
        if attr.mpbt {
            // Write-combine buffer: the store costs a cycle; the transfer
            // is charged when the combined line leaves the buffer.
            self.advance(t_l1_hit);
            self.perf.wcb_merges += 1;
            if let Some(fl) = self.wcb.merge(la, off, len, val) {
                self.apply_wcb_flush(fl);
            }
        } else {
            let cost = self.word_cost(pa);
            self.advance(cost);
            self.backing_write(pa, len, val);
        }
    }

    /// Execute `CL1INVMB`: invalidate all MPBT-tagged L1 lines.
    pub fn cl1invmb(&mut self) {
        self.perf.cl1invmb_count += 1;
        self.trace(EventKind::Cl1Invmb, 0, 0);
        self.l1.invalidate_mpbt();
        let c = self.timing.cl1invmb;
        self.advance(c);
    }

    /// Drain the write-combine buffer to memory.
    pub fn flush_wcb(&mut self) {
        if let Some(f) = self.wcb.take() {
            self.apply_wcb_flush(f);
        }
    }

    /// Software flush of both caches (the costly routine the paper avoids):
    /// every dirty line is written back, everything is invalidated.
    pub fn flush_all_caches(&mut self) {
        self.flush_wcb();
        for wb in self.l1.flush_all() {
            self.writeback_l1_victim(wb.line, wb.data);
        }
        for wb in self.l2.flush_all() {
            self.writeback_line(wb.line, wb.data);
        }
    }

    /// Does this core's L1 currently hold the line containing `pa`?
    /// (test/diagnostic helper, free)
    pub fn l1_contains(&self, pa: u32) -> bool {
        self.l1.contains(pa / LINE_BYTES as u32)
    }

    /// Does this core's L2 currently hold the line containing `pa`?
    pub fn l2_contains(&self, pa: u32) -> bool {
        self.l2.contains(pa / LINE_BYTES as u32)
    }

    // ------------------------------------------------------------------
    // Test-and-set registers
    // ------------------------------------------------------------------

    /// One attempt at the test-and-set register of `reg`'s tile.
    pub fn tas_try(&mut self, reg: CoreId) -> bool {
        if self.has_faults {
            // Injected mesh contention: stall before the attempt.
            let stall = self.mach.faults.tas_stall(reg.idx());
            if stall > 0 {
                self.advance(stall);
            }
        }
        let hops = self.topo.hops(self.id, reg);
        let cost = self.timing.tas_cost(hops);
        self.advance(cost);
        self.host_order_point(); // TAS registers are always globally visible
        match self.mach.tas.test_and_set(reg) {
            Some(release_stamp) => {
                self.perf.tas_acquires += 1;
                self.sync_to(release_stamp + cost);
                true
            }
            None => {
                self.perf.tas_spins += 1;
                false
            }
        }
    }

    /// Spin (in virtual time: block) until the register is acquired.
    pub fn tas_lock(&mut self, reg: CoreId) {
        loop {
            if self.tas_try(reg) {
                return;
            }
            let tas = Arc::clone(&self.mach);
            self.wait_until("test-and-set register", move || {
                (!tas.tas.is_locked(reg)).then_some(((), 0))
            });
        }
    }

    /// Release a test-and-set register.
    pub fn tas_unlock(&mut self, reg: CoreId) {
        let hops = self.topo.hops(self.id, reg);
        let cost = self.timing.tas_cost(hops);
        self.advance(cost);
        self.host_order_point();
        self.mach.tas.release(reg, self.clock);
    }

    // ------------------------------------------------------------------
    // Inter-processor interrupts
    // ------------------------------------------------------------------

    /// Ring the GIC doorbell of `dst`.
    ///
    /// Unsupported under the parallel executor: an IPI interrupts the
    /// receiver at an *asynchronous* point in its instruction stream, which
    /// a run-ahead receiver cannot honour without rollback. Returns
    /// [`HwError::ParUnsupported`] (before charging any cost or raising the
    /// doorbell) under `host_fast.parallel`; such runs must use
    /// polling-mode notification (see DESIGN.md §8 and
    /// [`crate::HostFastPaths::parallel`]).
    pub fn send_ipi(&mut self, dst: CoreId) -> Result<(), HwError> {
        if self.par {
            return Err(HwError::ParUnsupported {
                what: "send_ipi: an IPI lands at an asynchronous point of the \
                       receiver, which a run-ahead receiver cannot honour; \
                       use polling-mode notification (Notify::Poll)"
                    .to_string(),
            });
        }
        let t = &self.timing;
        let cost = t.ipi_raise + t.hop_cost(self.topo.hops(self.id, dst));
        self.advance(cost);
        self.perf.ipis_sent += 1;
        self.trace(EventKind::IpiSend, dst.idx() as u32, 0);
        if self.has_faults {
            match self.mach.faults.ipi_fault(self.id.idx(), dst.idx()) {
                crate::faults::IpiOutcome::Drop => return Ok(()),
                crate::faults::IpiOutcome::Delay(d) => {
                    self.mach.gic.raise(self.id, dst, self.clock + d);
                    return Ok(());
                }
                crate::faults::IpiOutcome::Deliver => {}
            }
        }
        self.mach.gic.raise(self.id, dst, self.clock);
        Ok(())
    }

    /// Cheap check for pending IPIs (one register read, free — the pin is
    /// wired to the core).
    #[inline]
    pub fn has_pending_ipi(&self) -> bool {
        self.mach.gic.has_pending(self.id)
    }

    /// Claim all pending IPIs. For each, the clock is advanced past the
    /// raise stamp plus wire delivery; the caller charges handler entry.
    pub fn claim_ipis(&mut self) -> Vec<(CoreId, u64)> {
        let list = self.mach.gic.claim(self.id);
        let t = self.timing.clone();
        for (src, stamp) in &list {
            self.perf.ipis_received += 1;
            let deliver = t.ipi_delivery(self.topo.hops(self.id, *src));
            self.sync_to(stamp + deliver);
            self.trace(EventKind::IpiRecv, src.idx() as u32, 0);
        }
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SccConfig;
    use crate::machine::Machine;

    fn one_core<R: Send>(f: impl Fn(&mut CoreCtx) -> R + Send + Sync) -> R {
        let m = Machine::new(SccConfig::small()).unwrap();
        let mut res = m.run_on(&[CoreId::new(0)], f).unwrap();
        res.pop().unwrap().result
    }

    #[test]
    fn uncached_roundtrip_charges_word_cost() {
        let (v, cycles) = one_core(|c| {
            let pa = c.machine().map.shared_base();
            let t0 = c.now();
            c.write(pa, 4, 0xfeed_f00d, MemAttr::UNCACHED);
            let v = c.read(pa, 4, MemAttr::UNCACHED);
            (v, c.now() - t0)
        });
        assert_eq!(v, 0xfeed_f00d);
        assert!(cycles > 100, "two DDR3 accesses should cost >100 cy, got {cycles}");
    }

    #[test]
    fn l1_hit_after_miss() {
        one_core(|c| {
            let pa = c.machine().map.shared_base();
            c.read(pa, 4, MemAttr::SHARED_MPBT_WT); // miss, fills L1
            let t0 = c.now();
            c.read(pa, 4, MemAttr::SHARED_MPBT_WT); // hit
            assert_eq!(c.now() - t0, 1, "L1 hit must cost 1 cycle");
            assert_eq!(c.perf.l1_hits, 1);
            assert_eq!(c.perf.l1_misses, 1);
        });
    }

    #[test]
    fn mpbt_read_bypasses_l2() {
        one_core(|c| {
            let pa = c.machine().map.shared_base();
            c.read(pa, 4, MemAttr::SHARED_MPBT_WT);
            assert!(c.l1_contains(pa));
            assert!(!c.l2_contains(pa));
            // Read-only attr goes through L2.
            let pa2 = pa + 4096;
            c.read(pa2, 4, MemAttr::SHARED_RO_L2);
            assert!(c.l2_contains(pa2));
        });
    }

    #[test]
    fn wcb_combines_and_flushes() {
        one_core(|c| {
            let pa = c.machine().map.shared_base();
            c.write(pa, 4, 0x11, MemAttr::SHARED_MPBT_WT);
            c.write(pa + 4, 4, 0x22, MemAttr::SHARED_MPBT_WT);
            // Not yet in RAM...
            assert_eq!(c.machine().ram.read(pa, 4), 0);
            // ...but visible to this core's own loads.
            assert_eq!(c.read(pa, 4, MemAttr::SHARED_MPBT_WT), 0x11);
            c.flush_wcb();
            assert_eq!(c.machine().ram.read(pa, 4), 0x11);
            assert_eq!(c.machine().ram.read(pa + 4, 4), 0x22);
            assert_eq!(c.perf.wcb_flushes, 1, "two stores combined into one flush");
        });
    }

    #[test]
    fn non_mpbt_write_through_goes_straight_to_ram() {
        one_core(|c| {
            let pa = c.machine().map.shared_base();
            c.write(pa, 4, 0x77, MemAttr::SHARED_RO_L2);
            assert_eq!(c.machine().ram.read(pa, 4), 0x77);
        });
    }

    #[test]
    fn stale_read_until_cl1invmb() {
        // The essence of non-coherence: a core keeps seeing its cached copy
        // after memory changed, until it executes CL1INVMB.
        one_core(|c| {
            let pa = c.machine().map.shared_base();
            c.machine().ram.write(pa, 4, 0xAAAA);
            let _ = c.read(pa, 4, MemAttr::SHARED_MPBT_WT); // cache it
            // Memory changes behind the core's back (as another core would).
            c.machine().ram.write(pa, 4, 0xBBBB);
            assert_eq!(
                c.read(pa, 4, MemAttr::SHARED_MPBT_WT),
                0xAAAA,
                "must read the stale cached copy"
            );
            c.cl1invmb();
            assert_eq!(
                c.read(pa, 4, MemAttr::SHARED_MPBT_WT),
                0xBBBB,
                "after CL1INVMB the fresh value must be fetched"
            );
        });
    }

    #[test]
    fn l1_victim_updates_stale_l2_copy() {
        // Regression test: a line is read (filling L1 and L2), dirtied in
        // L1, evicted from L1 by conflicting reads, then re-read. The
        // re-read must see the dirty data, not the L2's stale copy.
        one_core(|c| {
            let pa = c.machine().map.private_base(c.id());
            let l1_bytes = c.machine().cfg.l1.size as u32;
            c.read(pa, 8, MemAttr::PRIVATE_WB); // L1 + L2 now hold the line
            c.write(pa, 8, 0xDEAD, MemAttr::PRIVATE_WB); // dirty in L1 only
            // Evict the line from the (much smaller) L1 with conflicting
            // reads mapping to the same set, while staying inside the L2.
            for way in 1..=4u32 {
                c.read(pa + way * l1_bytes, 8, MemAttr::PRIVATE_WB);
            }
            assert!(!c.l1_contains(pa), "line must have left the L1");
            assert_eq!(
                c.read(pa, 8, MemAttr::PRIVATE_WB),
                0xDEAD,
                "the dirty L1 victim must be visible after re-read"
            );
        });
    }

    #[test]
    fn l2_storage_waits_for_an_l2_fill() {
        one_core(|c| {
            let shared = c.machine().map.shared_base();
            let mpb = crate::mpb::MpbArray::pa(c.id(), 64);
            for (pa, attr) in [
                (shared, MemAttr::SHARED_MPBT_WT),
                (mpb, MemAttr::MPB),
                (shared + 4096, MemAttr::UNCACHED),
            ] {
                c.write(pa, 4, 0x5a, attr);
                c.read(pa, 4, attr);
                c.read(pa + 64, 4, attr);
            }
            c.flush_all_caches();
            assert!(c.l1.storage_lines() > 0, "the MPBT reads filled the L1");
            assert_eq!(c.l2.storage_lines(), 0, "no access may use the L2");
            let private = c.machine().map.private_base(c.id());
            c.read(private, 4, MemAttr::PRIVATE_WB);
            assert_eq!(c.perf.l2_misses, 1);
            assert!(c.l2.storage_lines() > 0, "a private read miss fills the L2");
        });
    }

    #[test]
    fn private_write_back_stays_cached() {
        one_core(|c| {
            let pa = c.machine().map.private_base(c.id());
            c.read(pa, 4, MemAttr::PRIVATE_WB); // allocate line
            c.write(pa, 4, 0x99, MemAttr::PRIVATE_WB); // dirty in L1
            assert_eq!(c.machine().ram.read(pa, 4), 0, "write-back: RAM stale");
            c.flush_all_caches();
            assert_eq!(c.machine().ram.read(pa, 4), 0x99);
        });
    }

    #[test]
    fn unaligned_cross_line_access() {
        one_core(|c| {
            let pa = c.machine().map.shared_base() + 30; // crosses a 32B line
            c.write(pa, 4, 0x1234_5678, MemAttr::UNCACHED);
            assert_eq!(c.read(pa, 4, MemAttr::UNCACHED), 0x1234_5678);
        });
    }

    #[test]
    fn tas_lock_unlock() {
        one_core(|c| {
            let r = CoreId::new(7);
            assert!(c.tas_try(r));
            assert!(!c.tas_try(r));
            c.tas_unlock(r);
            assert!(c.tas_try(r));
        });
    }

    #[test]
    fn ipi_self_roundtrip() {
        one_core(|c| {
            let me = c.id();
            assert!(!c.has_pending_ipi());
            c.send_ipi(me).unwrap();
            assert!(c.has_pending_ipi());
            let got = c.claim_ipis();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].0, me);
        });
    }
}
