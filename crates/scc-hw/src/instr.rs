//! Structured protocol-event tracing — the instrumentation half of the
//! unified instrumentation layer (the other half is [`crate::metrics`]).
//!
//! Every layer of the stack (hardware model, kernel, mailbox, SVM) emits
//! **typed events** through [`CoreCtx::trace`](crate::CoreCtx::trace):
//! the five steps of the ownership-migration protocol, mailbox traffic,
//! IPIs, lazy-release flush/invalidate actions, TLB activity and page
//! placement decisions. Each event is stamped with the emitting core's
//! simulated clock and recorded into a **per-core ring buffer** — each
//! simulated core only ever writes its own ring from its own thread, so
//! recording needs no synchronisation at all.
//!
//! ## Zero cost when disabled
//!
//! Recording is compiled in only under the `trace` cargo feature. Without
//! it, [`TraceRing`] is a zero-sized struct and
//! [`TraceRing::record`] is an empty `#[inline(always)]` function, so every
//! emission site in the stack folds away to nothing — the default build is
//! bit-for-bit the untraced simulator. With the feature on, tracing still
//! never touches a core's virtual clock: simulated time is identical with
//! recording on, masked off, or compiled out (the shadow tests assert
//! this).
//!
//! ## Export
//!
//! [`chrome_trace_json`] renders the rings as Chrome `trace_event` JSON
//! (open in `chrome://tracing` or <https://ui.perfetto.dev>; one thread
//! lane per core, timestamps in simulated microseconds).
//! [`protocol_log`] renders a flat, time-sorted plain-text protocol log
//! for grepping and diffing.

use crate::topology::CoreId;
use serde::{Deserialize, Serialize};

/// The event taxonomy. Discriminants are stable bit positions in
/// [`TraceConfig::mask`] and must stay below 64.
#[repr(u8)]
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A page fault entered the kernel (`a` = faulting VA, `b` = 1 for
    /// write access).
    PageFault = 0,
    /// Strong/WI model, step 2: requester sends an ownership request
    /// (`a` = page, `b` = believed owner).
    OwnRequest = 1,
    /// Owner side: request arrived for a page we no longer own; forwarded
    /// (`a` = page, `b` = current owner).
    OwnForward = 2,
    /// Owner side, steps 3–4: flushed, withdrew access, recorded the new
    /// owner (`a` = page, `b` = new owner).
    OwnGrant = 3,
    /// Requester side, step 5: the acknowledgement mail arrived
    /// (`a` = page).
    OwnAck = 4,
    /// Requester side: ownership migration complete, page mapped
    /// (`a` = page, `b` = frame).
    OwnAcquired = 5,
    /// First-touch frame allocation (`a` = page, `b` = frame).
    FirstTouch = 6,
    /// Affinity-on-next-touch migration (`a` = page, `b` = new frame).
    Migrate = 7,
    /// Write-invalidate model: read replica granted and mapped
    /// (`a` = page, `b` = version).
    ReadReplica = 8,
    /// Write-invalidate: invalidations sent to the copyset
    /// (`a` = page, `b` = number of replica holders).
    WiInvSend = 9,
    /// Write-invalidate: replica dropped on an invalidation mail
    /// (`a` = page).
    WiInvRecv = 10,
    /// Write-invalidate: grant mail arrived (`a` = page, `b` = 1 for a
    /// write grant).
    WiGrant = 11,
    /// Mailbox send (`a` = destination core, `b` = mail kind).
    MailSend = 12,
    /// Mailbox receive (`a` = source core, `b` = mail kind).
    MailRecv = 13,
    /// GIC doorbell raised (`a` = destination core).
    IpiSend = 14,
    /// GIC doorbell claimed (`a` = source core).
    IpiRecv = 15,
    /// Write-combine buffer line left the buffer (`a` = line address /
    /// 32).
    WcbFlush = 16,
    /// `CL1INVMB` executed: all MPBT-tagged L1 lines invalidated.
    Cl1Invmb = 17,
    /// Lazy-release acquire action: lock taken, tagged lines invalidated
    /// (`a` = test-and-set register).
    AcquireInv = 18,
    /// Lazy-release release action: WCB flushed, lock dropped
    /// (`a` = test-and-set register).
    ReleaseFlush = 19,
    /// SVM barrier entered (release + acquire actions around it).
    Barrier = 20,
    /// Software-TLB translation hit (`a` = virtual page number).
    /// Off in the default mask — it fires on nearly every access.
    TlbHit = 21,
    /// Software-TLB miss: page-table walk taken (`a` = virtual page
    /// number).
    TlbMiss = 22,
    /// TLB entry dropped by a PTE-mutation shootdown (`a` = virtual page
    /// number).
    TlbShootdown = 23,
    /// PTE installed (`a` = VA, `b` = frame).
    PageMap = 24,
    /// PTE permissions changed (`a` = VA, `b` = new flag bits).
    PageProtect = 25,
    /// PTE dropped (`a` = VA).
    PageUnmap = 26,
    /// Core entered a blocking wait in the executor.
    BlockEnter = 27,
    /// Core left a blocking wait (the exporter pairs Enter/Exit into
    /// duration slices).
    BlockExit = 28,
    /// SVM page read through an `SvmArray` accessor, deduplicated per
    /// synchronisation segment (`a` = page).
    SvmRead = 29,
    /// SVM page write through an `SvmArray` accessor, deduplicated per
    /// synchronisation segment (`a` = page).
    SvmWrite = 30,
    /// `SvmLock::acquire` entered: the test-and-set register was taken
    /// (`a` = register). The matching [`EventKind::AcquireInv`] records
    /// the invalidate half of the acquire action.
    LockAcquire = 31,
    /// `SvmLock::release` completed: the test-and-set register was
    /// dropped (`a` = register). The matching
    /// [`EventKind::ReleaseFlush`] records the flush half.
    LockRelease = 32,
    /// A typed synchronisation-misuse error was detected and reported
    /// (`a` = register, `b` = error code: 1 = acquire re-entry,
    /// 2 = release of a lock not held).
    SyncErr = 33,
    /// SVM region allocated (`a` = first page, `b` = page count,
    /// `c` = consistency model: 0 strong, 1 lazy release,
    /// 2 write-invalidate).
    RegionAlloc = 34,
    /// `FrameOwners` advisory registry update (`a` = frame,
    /// `b` = new owner core, or `u32::MAX` on release).
    FrameOwner = 35,
    /// MPB-tree collective: a child's arrival flag was observed by its
    /// parent (`a` = child core, `b` = barrier epoch, `c` = tree level:
    /// 0 tile, 1 quad, 2 root).
    CollArrive = 36,
    /// MPB-tree collective: a parent released a child (`a` = child core,
    /// `b` = barrier epoch, `c` = tree level as in `CollArrive`).
    CollRelease = 37,
    /// svm-kv: a client issued a request (`a` = op: 0 GET / 1 PUT /
    /// 2 SCAN, `b` = key, `c` = correlation id).
    KvReq = 38,
    /// svm-kv: the matching reply completed at the client
    /// (`a` = op, `b` = virtual-time latency in cycles, saturated at
    /// `u32::MAX`, `c` = correlation id).
    KvResp = 39,
}

/// All kinds, in discriminant order (kept in sync with the enum; the unit
/// tests assert the mapping).
pub const ALL_KINDS: [EventKind; 40] = [
    EventKind::PageFault,
    EventKind::OwnRequest,
    EventKind::OwnForward,
    EventKind::OwnGrant,
    EventKind::OwnAck,
    EventKind::OwnAcquired,
    EventKind::FirstTouch,
    EventKind::Migrate,
    EventKind::ReadReplica,
    EventKind::WiInvSend,
    EventKind::WiInvRecv,
    EventKind::WiGrant,
    EventKind::MailSend,
    EventKind::MailRecv,
    EventKind::IpiSend,
    EventKind::IpiRecv,
    EventKind::WcbFlush,
    EventKind::Cl1Invmb,
    EventKind::AcquireInv,
    EventKind::ReleaseFlush,
    EventKind::Barrier,
    EventKind::TlbHit,
    EventKind::TlbMiss,
    EventKind::TlbShootdown,
    EventKind::PageMap,
    EventKind::PageProtect,
    EventKind::PageUnmap,
    EventKind::BlockEnter,
    EventKind::BlockExit,
    EventKind::SvmRead,
    EventKind::SvmWrite,
    EventKind::LockAcquire,
    EventKind::LockRelease,
    EventKind::SyncErr,
    EventKind::RegionAlloc,
    EventKind::FrameOwner,
    EventKind::CollArrive,
    EventKind::CollRelease,
    EventKind::KvReq,
    EventKind::KvResp,
];

impl EventKind {
    /// Number of event kinds in the taxonomy (the coverage accumulators
    /// size their transition tables from this).
    pub const COUNT: usize = ALL_KINDS.len();

    /// Stable ordinal of this kind: its discriminant, an index into
    /// [`ALL_KINDS`]. Transition-coverage signals (svm-fuzz) encode pairs
    /// of ordinals, so these must never be renumbered — append new kinds
    /// at the end of the enum only.
    #[inline]
    pub const fn ordinal(self) -> u8 {
        self as u8
    }

    /// Inverse of [`EventKind::ordinal`].
    #[inline]
    pub fn from_ordinal(o: u8) -> Option<EventKind> {
        ALL_KINDS.get(o as usize).copied()
    }

    /// The SVM page (or frame, for [`EventKind::FrameOwner`]) an event is
    /// about, when its payload names one — the per-page key of the
    /// transition-coverage signal. `None` for kinds whose payload is not
    /// page-shaped (mail traffic, cache maintenance, kv ops...).
    #[inline]
    pub fn page_key(self, e: &TraceEvent) -> Option<u32> {
        match self {
            EventKind::OwnRequest
            | EventKind::OwnForward
            | EventKind::OwnGrant
            | EventKind::OwnAck
            | EventKind::OwnAcquired
            | EventKind::FirstTouch
            | EventKind::Migrate
            | EventKind::ReadReplica
            | EventKind::WiInvSend
            | EventKind::WiInvRecv
            | EventKind::WiGrant
            | EventKind::SvmRead
            | EventKind::SvmWrite
            | EventKind::RegionAlloc
            | EventKind::FrameOwner => Some(e.a),
            _ => None,
        }
    }

    /// The *other* core an event names, when its payload carries one —
    /// the core-pair key of the transition-coverage signal. The emitting
    /// core is implicit (rings are per-core), so `(emitter, peer, kind)`
    /// identifies one directed protocol edge.
    #[inline]
    pub fn peer_core(self, e: &TraceEvent) -> Option<u32> {
        match self {
            // Mail and doorbell traffic: `a` is the other endpoint.
            EventKind::MailSend
            | EventKind::MailRecv
            | EventKind::IpiSend
            | EventKind::IpiRecv => Some(e.a),
            // Ownership migration: `b` names the believed owner / new
            // owner / granter.
            EventKind::OwnRequest | EventKind::OwnGrant | EventKind::OwnAck => Some(e.b),
            // Collective tree edges: `a` is the child core.
            EventKind::CollArrive | EventKind::CollRelease => Some(e.a),
            _ => None,
        }
    }

    /// Event name as it appears in the Chrome trace and the protocol log.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PageFault => "page_fault",
            EventKind::OwnRequest => "own_request",
            EventKind::OwnForward => "own_forward",
            EventKind::OwnGrant => "own_grant",
            EventKind::OwnAck => "own_ack",
            EventKind::OwnAcquired => "own_acquired",
            EventKind::FirstTouch => "first_touch",
            EventKind::Migrate => "migrate",
            EventKind::ReadReplica => "read_replica",
            EventKind::WiInvSend => "wi_inv_send",
            EventKind::WiInvRecv => "wi_inv_recv",
            EventKind::WiGrant => "wi_grant",
            EventKind::MailSend => "mail_send",
            EventKind::MailRecv => "mail_recv",
            EventKind::IpiSend => "ipi_send",
            EventKind::IpiRecv => "ipi_recv",
            EventKind::WcbFlush => "wcb_flush",
            EventKind::Cl1Invmb => "cl1invmb",
            EventKind::AcquireInv => "acquire_inv",
            EventKind::ReleaseFlush => "release_flush",
            EventKind::Barrier => "barrier",
            EventKind::TlbHit => "tlb_hit",
            EventKind::TlbMiss => "tlb_miss",
            EventKind::TlbShootdown => "tlb_shootdown",
            EventKind::PageMap => "page_map",
            EventKind::PageProtect => "page_protect",
            EventKind::PageUnmap => "page_unmap",
            EventKind::BlockEnter => "block",
            EventKind::BlockExit => "unblock",
            EventKind::SvmRead => "svm_read",
            EventKind::SvmWrite => "svm_write",
            EventKind::LockAcquire => "lock_acquire",
            EventKind::LockRelease => "lock_release",
            EventKind::SyncErr => "sync_err",
            EventKind::RegionAlloc => "region_alloc",
            EventKind::FrameOwner => "frame_owner",
            EventKind::CollArrive => "coll_arrive",
            EventKind::CollRelease => "coll_release",
            EventKind::KvReq => "kv_req",
            EventKind::KvResp => "kv_resp",
        }
    }

    /// Subsystem category (the Chrome trace `cat` field).
    pub fn category(self) -> &'static str {
        match self {
            EventKind::PageFault
            | EventKind::PageMap
            | EventKind::PageProtect
            | EventKind::PageUnmap => "paging",
            EventKind::OwnRequest
            | EventKind::OwnForward
            | EventKind::OwnGrant
            | EventKind::OwnAck
            | EventKind::OwnAcquired => "svm",
            EventKind::FirstTouch | EventKind::Migrate => "placement",
            EventKind::ReadReplica
            | EventKind::WiInvSend
            | EventKind::WiInvRecv
            | EventKind::WiGrant => "wi",
            EventKind::MailSend | EventKind::MailRecv => "mailbox",
            EventKind::IpiSend | EventKind::IpiRecv => "gic",
            EventKind::WcbFlush | EventKind::Cl1Invmb => "cache",
            EventKind::AcquireInv
            | EventKind::ReleaseFlush
            | EventKind::Barrier
            | EventKind::LockAcquire
            | EventKind::LockRelease
            | EventKind::SyncErr
            | EventKind::CollArrive
            | EventKind::CollRelease => "sync",
            EventKind::TlbHit | EventKind::TlbMiss | EventKind::TlbShootdown => "tlb",
            EventKind::BlockEnter | EventKind::BlockExit => "exec",
            EventKind::SvmRead | EventKind::SvmWrite | EventKind::RegionAlloc => "svm",
            EventKind::FrameOwner => "placement",
            EventKind::KvReq | EventKind::KvResp => "kv",
        }
    }

    /// Names of the three payload arguments; `""` marks an unused slot.
    pub fn arg_names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            EventKind::PageFault => ("va", "write", ""),
            EventKind::OwnRequest => ("page", "owner", ""),
            EventKind::OwnForward => ("page", "owner", "requester"),
            EventKind::OwnGrant => ("page", "to", ""),
            EventKind::OwnAck => ("page", "granter", ""),
            EventKind::OwnAcquired => ("page", "frame", ""),
            EventKind::FirstTouch => ("page", "frame", ""),
            EventKind::Migrate => ("page", "frame", ""),
            EventKind::ReadReplica => ("page", "version", ""),
            EventKind::WiInvSend => ("page", "replicas", ""),
            EventKind::WiInvRecv => ("page", "", ""),
            EventKind::WiGrant => ("page", "write", ""),
            EventKind::MailSend => ("dst", "kind", "stamp"),
            EventKind::MailRecv => ("src", "kind", "stamp"),
            EventKind::IpiSend => ("dst", "", ""),
            EventKind::IpiRecv => ("src", "", ""),
            EventKind::WcbFlush => ("line", "", ""),
            EventKind::Cl1Invmb => ("", "", ""),
            EventKind::AcquireInv => ("reg", "", ""),
            EventKind::ReleaseFlush => ("reg", "", ""),
            EventKind::Barrier => ("", "", ""),
            EventKind::TlbHit => ("vpn", "", ""),
            EventKind::TlbMiss => ("vpn", "", ""),
            EventKind::TlbShootdown => ("vpn", "", ""),
            EventKind::PageMap => ("va", "frame", ""),
            EventKind::PageProtect => ("va", "flags", ""),
            EventKind::PageUnmap => ("va", "", ""),
            EventKind::BlockEnter => ("", "", ""),
            EventKind::BlockExit => ("", "", ""),
            EventKind::SvmRead => ("page", "", ""),
            EventKind::SvmWrite => ("page", "", ""),
            EventKind::LockAcquire => ("reg", "", ""),
            EventKind::LockRelease => ("reg", "", ""),
            EventKind::SyncErr => ("reg", "code", ""),
            EventKind::RegionAlloc => ("page", "pages", "model"),
            EventKind::FrameOwner => ("frame", "owner", ""),
            EventKind::CollArrive => ("child", "epoch", "level"),
            EventKind::CollRelease => ("child", "epoch", "level"),
            EventKind::KvReq => ("op", "key", "corr"),
            EventKind::KvResp => ("op", "latency", "corr"),
        }
    }

    /// Inverse of [`EventKind::name`] — used by the offline trace parsers.
    pub fn from_name(name: &str) -> Option<EventKind> {
        ALL_KINDS.iter().copied().find(|k| k.name() == name)
    }

    /// This kind's bit in [`TraceConfig::mask`].
    #[inline]
    pub fn bit(self) -> u64 {
        1 << (self as u8)
    }

    /// Mask with every kind enabled.
    pub fn all_mask() -> u64 {
        (1u64 << ALL_KINDS.len()) - 1
    }

    /// The default mask: everything except [`EventKind::TlbHit`], which
    /// fires on nearly every memory access and would instantly wrap any
    /// ring.
    pub fn default_mask() -> u64 {
        Self::all_mask() & !EventKind::TlbHit.bit()
    }
}

/// One recorded event. The core id is implicit — rings are per-core.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time (core cycles) at emission.
    pub t: u64,
    pub kind: EventKind,
    pub a: u32,
    pub b: u32,
    /// Third payload slot — correlation ids and model tags; `0` for kinds
    /// whose third [`EventKind::arg_names`] slot is unused.
    pub c: u32,
}

/// Runtime trace configuration (part of [`crate::SccConfig`]). Inert
/// unless the crate is built with the `trace` feature.
#[derive(Copy, Clone, Debug, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Ring capacity per core, in events. `0` disables recording even when
    /// the `trace` feature is compiled in.
    pub per_core_capacity: usize,
    /// Bitmask of enabled [`EventKind`]s (bit index = discriminant).
    pub mask: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            per_core_capacity: 1 << 14,
            mask: EventKind::default_mask(),
        }
    }
}

impl TraceConfig {
    /// Recording off at runtime (the shadow-test baseline).
    pub fn disabled() -> Self {
        TraceConfig {
            per_core_capacity: 0,
            mask: 0,
        }
    }

    /// Every kind enabled with the given ring capacity.
    pub fn full(per_core_capacity: usize) -> Self {
        TraceConfig {
            per_core_capacity,
            mask: EventKind::all_mask(),
        }
    }
}

/// A per-core event ring. Without the `trace` feature this is a zero-sized
/// type and every method is a no-op.
#[derive(Debug, Default)]
pub struct TraceRing {
    #[cfg(feature = "trace")]
    buf: Vec<TraceEvent>,
    #[cfg(feature = "trace")]
    head: usize,
    #[cfg(feature = "trace")]
    cap: usize,
    #[cfg(feature = "trace")]
    mask: u64,
    #[cfg(feature = "trace")]
    overwritten: u64,
}

impl TraceRing {
    /// Whether event recording is compiled into this build.
    pub const fn compiled_in() -> bool {
        cfg!(feature = "trace")
    }

    #[allow(unused_variables)]
    pub fn new(cfg: &TraceConfig) -> TraceRing {
        #[cfg(feature = "trace")]
        {
            TraceRing {
                buf: Vec::with_capacity(cfg.per_core_capacity.min(1 << 20)),
                head: 0,
                cap: cfg.per_core_capacity.min(1 << 20),
                mask: cfg.mask,
                overwritten: 0,
            }
        }
        #[cfg(not(feature = "trace"))]
        TraceRing::default()
    }

    /// Would [`TraceRing::record`] keep an event of `kind`? Callers use
    /// it to skip work that only feeds the ring.
    #[cfg(feature = "trace")]
    #[inline(always)]
    pub(crate) fn records(&self, kind: EventKind) -> bool {
        self.cap != 0 && self.mask & kind.bit() != 0
    }

    /// Record one event (two payload slots). The hot-path funnel: compiles
    /// to nothing without the `trace` feature, and to a mask test plus a
    /// ring store with it.
    #[inline(always)]
    pub fn record(&mut self, t: u64, kind: EventKind, a: u32, b: u32) {
        self.record3(t, kind, a, b, 0);
    }

    /// Record one event with all three payload slots.
    #[inline(always)]
    #[allow(unused_variables)]
    pub fn record3(&mut self, t: u64, kind: EventKind, a: u32, b: u32, c: u32) {
        #[cfg(feature = "trace")]
        {
            if !self.records(kind) {
                return;
            }
            let e = TraceEvent { t, kind, a, b, c };
            if self.buf.len() < self.cap {
                self.buf.push(e);
            } else {
                self.buf[self.head] = e;
                self.head = (self.head + 1) % self.cap;
                self.overwritten += 1;
            }
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        #[cfg(feature = "trace")]
        {
            self.buf.len()
        }
        #[cfg(not(feature = "trace"))]
        0
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten after the ring wrapped (oldest-first eviction).
    pub fn overwritten(&self) -> u64 {
        #[cfg(feature = "trace")]
        {
            self.overwritten
        }
        #[cfg(not(feature = "trace"))]
        0
    }

    /// The held events in chronological order.
    pub fn events(&self) -> Vec<TraceEvent> {
        #[cfg(feature = "trace")]
        {
            let mut out = Vec::with_capacity(self.buf.len());
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
            out
        }
        #[cfg(not(feature = "trace"))]
        Vec::new()
    }
}

// ----------------------------------------------------------------------
// Exporters
// ----------------------------------------------------------------------

fn push_args(out: &mut String, e: &TraceEvent) {
    let (an, bn, cn) = e.kind.arg_names();
    out.push('{');
    let mut any = false;
    for (name, val) in [(an, e.a), (bn, e.b), (cn, e.c)] {
        if name.is_empty() {
            continue;
        }
        if any {
            out.push(',');
        }
        any = true;
        out.push_str(&format!("\"{name}\":{val}"));
    }
    out.push('}');
}

/// Render per-core rings as Chrome `trace_event` JSON (JSON-array format).
/// Timestamps are simulated microseconds (`cycles / core_mhz`); one thread
/// lane per core. `BlockEnter`/`BlockExit` pairs become duration slices,
/// everything else a thread-scoped instant event.
pub fn chrome_trace_json<'a>(
    per_core: impl IntoIterator<Item = (CoreId, &'a TraceRing)>,
    core_mhz: u32,
) -> String {
    let mhz = core_mhz as f64;
    let mut out = String::from("[\n");
    let mut first = true;
    let mut emit = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    for (core, ring) in per_core {
        let tid = core.idx();
        emit(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"core {tid:02}\"}}}}"
            ),
            &mut out,
        );
        let events = ring.events();
        let mut i = 0;
        while i < events.len() {
            let e = events[i];
            let ts = e.t as f64 / mhz;
            match e.kind {
                EventKind::BlockEnter => {
                    // Pair with the next BlockExit on this core.
                    let exit = events[i + 1..]
                        .iter()
                        .find(|x| x.kind == EventKind::BlockExit);
                    if let Some(x) = exit {
                        let dur = (x.t.saturating_sub(e.t)) as f64 / mhz;
                        emit(
                            format!(
                                "{{\"name\":\"blocked\",\"cat\":\"exec\",\"ph\":\"X\",\
                                 \"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":0,\"tid\":{tid}}}"
                            ),
                            &mut out,
                        );
                    }
                }
                EventKind::BlockExit => {} // consumed by its BlockEnter
                _ => {
                    let mut args = String::new();
                    push_args(&mut args, &e);
                    emit(
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
                             \"ts\":{ts:.3},\"pid\":0,\"tid\":{tid},\"args\":{args}}}",
                            e.kind.name(),
                            e.kind.category(),
                        ),
                        &mut out,
                    );
                }
            }
            i += 1;
        }
    }
    out.push_str("\n]\n");
    out
}

/// Render per-core rings as a flat plain-text protocol log, sorted by
/// simulated time (ties broken by core id). One event per line:
///
/// ```text
/// [      123456] core 03 svm.own_request page=5 owner=2
/// ```
pub fn protocol_log<'a>(per_core: impl IntoIterator<Item = (CoreId, &'a TraceRing)>) -> String {
    let mut all: Vec<(u64, usize, TraceEvent)> = Vec::new();
    for (core, ring) in per_core {
        for e in ring.events() {
            all.push((e.t, core.idx(), e));
        }
    }
    all.sort_by_key(|(t, c, _)| (*t, *c));
    let mut out = String::new();
    for (t, core, e) in all {
        let (an, bn, cn) = e.kind.arg_names();
        out.push_str(&format!(
            "[{t:>12}] core {core:02} {}.{}",
            e.kind.category(),
            e.kind.name()
        ));
        for (name, val) in [(an, e.a), (bn, e.b), (cn, e.c)] {
            if !name.is_empty() {
                out.push_str(&format!(" {name}={val}"));
            }
        }
        out.push('\n');
    }
    out
}

// ----------------------------------------------------------------------
// Sinks
// ----------------------------------------------------------------------

/// A consumer of the merged, time-ordered event stream — the online
/// attachment point for analysis tools such as the `scc_checker` crate.
///
/// [`replay`] feeds every event from a set of per-core rings to a sink in
/// global simulated-time order, the same order [`protocol_log`] prints.
/// Because rings are only merged after a run completes, a sink observes
/// exactly what an offline parse of the exported trace would — the shadow
/// tests in the checker assert the two paths produce identical findings.
pub trait EventSink {
    /// One event from `core` at simulated time `event.t`.
    fn event(&mut self, core: CoreId, event: &TraceEvent);

    /// Ring-buffer truncation notice: `core` overwrote `lost` events
    /// before the replay started, so the stream is incomplete.
    fn truncated(&mut self, core: CoreId, lost: u64) {
        let _ = (core, lost);
    }
}

/// A consumer of per-core event streams in *ring order* — the attachment
/// point for coverage accumulators (svm-fuzz's transition-coverage
/// signal), alongside the checker's globally-merged [`EventSink`].
///
/// Unlike [`replay`], [`tap`] feeds each core's ring separately and in
/// the order events were recorded, without the global merge sort: a
/// transition signal is defined over each core's own event sequence (plus
/// per-page and per-core-pair keys carried in the payloads), so the
/// merge's O(n log n) and its allocation are pure waste on the fuzzing
/// hot loop. Without the `trace` feature every ring is empty and a tap
/// costs nothing — the fuzzer degrades to blind exploration.
pub trait CoverageSink {
    /// Called once before `core`'s events, in ring (chronological) order.
    fn begin_core(&mut self, core: CoreId) {
        let _ = core;
    }

    /// One event from `core`, in ring order.
    fn event(&mut self, core: CoreId, event: &TraceEvent);
}

/// Feed every event from the per-core rings to `sink`, core by core in
/// iteration order, each core's events in ring (chronological) order.
pub fn tap<'a>(
    per_core: impl IntoIterator<Item = (CoreId, &'a TraceRing)>,
    sink: &mut dyn CoverageSink,
) {
    for (core, ring) in per_core {
        sink.begin_core(core);
        for e in ring.events() {
            sink.event(core, &e);
        }
    }
}

/// Feed every event from the per-core rings to `sink` in global
/// simulated-time order (ties broken by core id, then by ring order —
/// a stable sort, matching [`protocol_log`]). Reports each wrapped ring
/// through [`EventSink::truncated`] before the first event.
pub fn replay<'a>(
    per_core: impl IntoIterator<Item = (CoreId, &'a TraceRing)>,
    sink: &mut dyn EventSink,
) {
    let mut all: Vec<(u64, usize, TraceEvent)> = Vec::new();
    for (core, ring) in per_core {
        if ring.overwritten() > 0 {
            sink.truncated(core, ring.overwritten());
        }
        for e in ring.events() {
            all.push((e.t, core.idx(), e));
        }
    }
    all.sort_by_key(|(t, c, _)| (*t, *c));
    for (_, core, e) in &all {
        sink.event(CoreId::new(*core), e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminants_match_all_kinds_table() {
        for (i, k) in ALL_KINDS.iter().enumerate() {
            assert_eq!(*k as u8 as usize, i, "{k:?} out of order in ALL_KINDS");
            assert!(!k.name().is_empty());
            assert!(!k.category().is_empty());
            assert_eq!(EventKind::from_name(k.name()), Some(*k));
        }
        assert!(ALL_KINDS.len() <= 64, "mask bits must fit a u64");
        assert_eq!(EventKind::from_name("no_such_event"), None);
    }

    #[test]
    fn ordinals_round_trip_and_stay_dense() {
        assert_eq!(EventKind::COUNT, ALL_KINDS.len());
        for k in ALL_KINDS {
            assert_eq!(EventKind::from_ordinal(k.ordinal()), Some(k));
            assert!((k.ordinal() as usize) < EventKind::COUNT);
        }
        assert_eq!(EventKind::from_ordinal(EventKind::COUNT as u8), None);
    }

    #[test]
    fn payload_keys_follow_arg_names() {
        // Every kind claiming a page key must name its first payload slot
        // "page" (or "frame" for the advisory registry); every peer kind
        // must name a core-shaped slot. Guards the classification against
        // taxonomy growth: a new kind with a `page` arg that forgets to
        // extend `page_key` fails here.
        for k in ALL_KINDS {
            let e = TraceEvent { t: 0, kind: k, a: 7, b: 9, c: 0 };
            let (an, bn, _) = k.arg_names();
            if let Some(p) = k.page_key(&e) {
                assert_eq!(p, 7, "{k:?}: page key must come from slot a");
                assert!(
                    an == "page" || an == "frame",
                    "{k:?}: page-keyed but slot a is {an:?}"
                );
            } else {
                assert_ne!(an, "page", "{k:?}: has a page arg but no page key");
            }
            if let Some(peer) = k.peer_core(&e) {
                assert!(
                    (peer == 7 && matches!(an, "dst" | "src" | "child"))
                        || (peer == 9 && matches!(bn, "owner" | "to" | "granter")),
                    "{k:?}: peer key does not match its arg names"
                );
            }
        }
    }

    #[cfg(feature = "trace")]
    #[test]
    fn tap_feeds_rings_in_ring_order() {
        struct Collect(Vec<(usize, u64)>, usize);
        impl CoverageSink for Collect {
            fn begin_core(&mut self, _core: CoreId) {
                self.1 += 1;
            }
            fn event(&mut self, core: CoreId, e: &TraceEvent) {
                self.0.push((core.idx(), e.t));
            }
        }
        let mut r0 = TraceRing::new(&TraceConfig::full(8));
        r0.record(30, EventKind::Barrier, 0, 0);
        r0.record(10, EventKind::Barrier, 0, 0); // ring order, not time order
        let mut r1 = TraceRing::new(&TraceConfig::full(8));
        r1.record(20, EventKind::Cl1Invmb, 0, 0);
        let mut sink = Collect(Vec::new(), 0);
        tap(
            [(CoreId::new(0), &r0), (CoreId::new(1), &r1)]
                .iter()
                .map(|(c, r)| (*c, *r)),
            &mut sink,
        );
        assert_eq!(sink.0, vec![(0, 30), (0, 10), (1, 20)]);
        assert_eq!(sink.1, 2, "begin_core once per ring");
    }

    #[test]
    fn default_mask_excludes_tlb_hits_only() {
        let m = EventKind::default_mask();
        assert_eq!(m & EventKind::TlbHit.bit(), 0);
        for k in ALL_KINDS {
            if k != EventKind::TlbHit {
                assert_ne!(m & k.bit(), 0, "{k:?} must be on by default");
            }
        }
    }

    #[cfg(feature = "trace")]
    #[test]
    fn ring_records_and_masks() {
        let mut r = TraceRing::new(&TraceConfig::full(8));
        r.record(1, EventKind::Barrier, 0, 0);
        r.record(2, EventKind::MailSend, 3, 1);
        assert_eq!(r.len(), 2);
        let ev = r.events();
        assert_eq!(ev[0].kind, EventKind::Barrier);
        assert_eq!(ev[1].a, 3);

        let mut masked = TraceRing::new(&TraceConfig {
            per_core_capacity: 8,
            mask: EventKind::Barrier.bit(),
        });
        masked.record(1, EventKind::MailSend, 0, 0);
        masked.record(2, EventKind::Barrier, 0, 0);
        assert_eq!(masked.len(), 1, "masked kinds must not record");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn ring_wraps_oldest_first() {
        let mut r = TraceRing::new(&TraceConfig::full(4));
        for t in 0..10u64 {
            r.record(t, EventKind::Barrier, t as u32, 0);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.overwritten(), 6);
        let ts: Vec<u64> = r.events().iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![6, 7, 8, 9], "chronological after wrap");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn exporters_render_names_and_args() {
        let mut r = TraceRing::new(&TraceConfig::full(16));
        r.record(533, EventKind::OwnRequest, 5, 2);
        r.record(1066, EventKind::BlockEnter, 0, 0);
        r.record(2132, EventKind::BlockExit, 0, 0);
        let pairs = [(CoreId::new(3), &r)];
        let json = chrome_trace_json(pairs.iter().map(|(c, r)| (*c, *r)), 533);
        assert!(json.contains("\"own_request\""));
        assert!(json.contains("\"page\":5"));
        assert!(json.contains("\"ph\":\"X\""), "block pair must become a slice");
        assert!(json.contains("\"ts\":1.000"), "533 cy at 533 MHz = 1 us");

        let log = protocol_log(pairs.iter().map(|(c, r)| (*c, *r)));
        assert!(log.contains("core 03 svm.own_request page=5 owner=2"));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn third_payload_slot_renders_when_named() {
        let mut r = TraceRing::new(&TraceConfig::full(16));
        r.record3(100, EventKind::RegionAlloc, 4, 2, 1);
        r.record3(200, EventKind::MailSend, 7, 3, 123456);
        let pairs = [(CoreId::new(0), &r)];
        let log = protocol_log(pairs.iter().map(|(c, r)| (*c, *r)));
        assert!(log.contains("svm.region_alloc page=4 pages=2 model=1"));
        assert!(log.contains("mailbox.mail_send dst=7 kind=3 stamp=123456"));
        let json = chrome_trace_json(pairs.iter().map(|(c, r)| (*c, *r)), 533);
        assert!(json.contains("\"model\":1"));
        assert!(json.contains("\"stamp\":123456"));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn replay_merges_rings_in_time_order() {
        struct Collect {
            seen: Vec<(usize, u64, EventKind)>,
            lost: u64,
        }
        impl EventSink for Collect {
            fn event(&mut self, core: CoreId, e: &TraceEvent) {
                self.seen.push((core.idx(), e.t, e.kind));
            }
            fn truncated(&mut self, _core: CoreId, lost: u64) {
                self.lost += lost;
            }
        }
        let mut r0 = TraceRing::new(&TraceConfig::full(8));
        r0.record(10, EventKind::Barrier, 0, 0);
        r0.record(30, EventKind::Barrier, 0, 0);
        let mut r1 = TraceRing::new(&TraceConfig::full(8));
        r1.record(10, EventKind::Cl1Invmb, 0, 0);
        r1.record(20, EventKind::Barrier, 0, 0);
        let mut sink = Collect {
            seen: Vec::new(),
            lost: 0,
        };
        replay(
            [(CoreId::new(0), &r0), (CoreId::new(1), &r1)]
                .iter()
                .map(|(c, r)| (*c, *r)),
            &mut sink,
        );
        let order: Vec<(usize, u64)> = sink.seen.iter().map(|(c, t, _)| (*c, *t)).collect();
        assert_eq!(
            order,
            vec![(0, 10), (1, 10), (1, 20), (0, 30)],
            "global time order, ties broken by core id"
        );
        assert_eq!(sink.lost, 0);
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn without_feature_ring_is_inert() {
        let mut r = TraceRing::new(&TraceConfig::full(1024));
        r.record(1, EventKind::Barrier, 0, 0);
        assert!(r.is_empty());
        assert!(!TraceRing::compiled_in());
        assert_eq!(std::mem::size_of::<TraceRing>(), 0, "zero-sized when disabled");
    }
}
