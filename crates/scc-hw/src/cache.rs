//! Functional models of the P54C cache hierarchy as configured by MetalSVM:
//!
//! * **L1** — 8 KiB, 2-way, per-line `MPBT` tag. Lines tagged MPBT are the
//!   target of the `CL1INVMB` instruction (flash-invalidate, no writeback —
//!   MPBT data is always written through, so it is never dirty).
//! * **L2** — 256 KiB, 4-way. The SCC **bypasses** the L2 for MPBT accesses;
//!   the P54C also has no hardware L2 flush, which is exactly why MetalSVM
//!   restricts shared pages to the L1 + write-through + WCB combination and
//!   only re-enables the L2 for read-only regions.
//! * **WCB** — the write-combine buffer: a single 32-byte line that collects
//!   write-through stores to MPBT pages so they leave the core as one burst
//!   instead of one transaction per store.
//!
//! The caches are *functional*: they store data. A core that has a line
//! cached keeps reading its (possibly stale) copy until it invalidates —
//! which is precisely the behaviour that makes software-managed coherence
//! necessary, and which the test suite asserts.
//!
//! Replacement is true-LRU per set. Writes never allocate (P54C:
//! "update cache entries on read miss only").
//!
//! Line storage is host memory allocated at the first fill, not when the
//! cache is built: until then every lookup misses, exactly as on an empty
//! cache. Shared pages are MPBT-tagged and bypass the L2, so on SVM
//! workloads most cores never fill theirs, and 512 cores × 8192 L2 lines
//! × 48 host bytes would otherwise be 192 MiB written and never read.

use crate::config::{CacheGeom, LINE_BYTES};

/// Index of a 32-byte line in physical address space (`pa / 32`).
pub type LineAddr = u32;

/// Per-line bookkeeping, packed into 16 bytes so a tag probe touches a
/// minimal slice of the line struct.
#[derive(Clone, Copy)]
struct Meta {
    tag: u32,
    /// Bit 0 valid, bit 1 dirty, bit 2 MPBT.
    flags: u32,
    lru: u64,
}

const F_VALID: u32 = 1;
const F_DIRTY: u32 = 2;
const F_MPBT: u32 = 4;

impl Meta {
    fn empty() -> Self {
        Meta {
            tag: 0,
            flags: 0,
            lru: 0,
        }
    }

    #[inline]
    fn valid(&self) -> bool {
        self.flags & F_VALID != 0
    }

    #[inline]
    fn dirty(&self) -> bool {
        self.flags & F_DIRTY != 0
    }

    #[inline]
    fn mpbt(&self) -> bool {
        self.flags & F_MPBT != 0
    }
}

/// One cache line: bookkeeping and data kept adjacent (48 bytes) so that a
/// hit touches one or two host cache lines, not one per array.
#[derive(Clone, Copy)]
struct Line {
    meta: Meta,
    data: [u8; LINE_BYTES],
}

impl Line {
    fn empty() -> Self {
        Line {
            meta: Meta::empty(),
            data: [0; LINE_BYTES],
        }
    }
}

/// A dirty line pushed out of the cache; the memory engine must write it back.
pub struct Writeback {
    pub line: LineAddr,
    pub data: [u8; LINE_BYTES],
}

/// A set-associative, true-LRU, data-carrying cache model.
pub struct Cache {
    sets: usize,
    /// `log2(sets)`: the tag is `la >> set_shift` (sets is a power of two;
    /// a shift keeps the per-access lookup free of integer division).
    set_shift: u32,
    assoc: usize,
    /// `sets * assoc` lines once [`Cache::fill`] has run, empty before: a
    /// lookup's `get(base..base + assoc)` then finds no ways, i.e. a miss.
    lines: Vec<Line>,
    tick: u64,
}

impl Cache {
    pub fn new(geom: CacheGeom) -> Self {
        let sets = geom.sets();
        assert!(sets.is_power_of_two());
        Cache {
            sets,
            set_shift: sets.trailing_zeros(),
            assoc: geom.assoc,
            lines: Vec::new(),
            tick: 0,
        }
    }

    /// Host lines of storage held: 0 until the first fill.
    #[cfg(test)]
    pub(crate) fn storage_lines(&self) -> usize {
        self.lines.capacity()
    }

    #[inline]
    fn set_of(&self, la: LineAddr) -> usize {
        (la as usize) & (self.sets - 1)
    }

    #[inline]
    fn tag_of(&self, la: LineAddr) -> u32 {
        la >> self.set_shift
    }

    #[inline]
    fn ways(&self, set: usize) -> std::ops::Range<usize> {
        set * self.assoc..(set + 1) * self.assoc
    }

    #[inline]
    fn find(&self, la: LineAddr) -> Option<usize> {
        let tag = self.tag_of(la);
        let base = self.set_of(la) * self.assoc;
        let ways = self.lines.get(base..base + self.assoc)?;
        ways.iter()
            .position(|l| l.meta.valid() && l.meta.tag == tag)
            .map(|w| base + w)
    }

    /// Probe without touching LRU state (used by tests and snoops).
    pub fn contains(&self, la: LineAddr) -> bool {
        self.find(la).is_some()
    }

    /// Read `len` bytes at `offset` within line `la`, if cached.
    /// Updates LRU on hit.
    #[inline]
    pub fn read(&mut self, la: LineAddr, offset: usize, len: usize) -> Option<u64> {
        let tag = la >> self.set_shift;
        let base = ((la as usize) & (self.sets - 1)) * self.assoc;
        let tick = self.tick + 1;
        for l in self.lines.get_mut(base..base + self.assoc)? {
            if l.meta.valid() && l.meta.tag == tag {
                self.tick = tick;
                l.meta.lru = tick;
                let mut buf = [0u8; 8];
                buf[..len].copy_from_slice(&l.data[offset..offset + len]);
                return Some(u64::from_le_bytes(buf));
            }
        }
        None
    }

    /// Write `len` bytes into line `la` **iff present** (no write-allocate).
    ///
    /// `write_through == false` marks the line dirty (write-back policy for
    /// private memory); write-through lines stay clean because the store is
    /// simultaneously sent down the hierarchy by the memory engine.
    ///
    /// Returns `true` when the line was present (a write hit).
    #[inline]
    pub fn write_if_present(
        &mut self,
        la: LineAddr,
        offset: usize,
        len: usize,
        val: u64,
        write_through: bool,
    ) -> bool {
        let tag = la >> self.set_shift;
        let base = ((la as usize) & (self.sets - 1)) * self.assoc;
        let tick = self.tick + 1;
        let Some(ways) = self.lines.get_mut(base..base + self.assoc) else {
            return false;
        };
        for l in ways {
            if l.meta.valid() && l.meta.tag == tag {
                self.tick = tick;
                l.meta.lru = tick;
                l.data[offset..offset + len].copy_from_slice(&val.to_le_bytes()[..len]);
                if !write_through {
                    l.meta.flags |= F_DIRTY;
                }
                return true;
            }
        }
        false
    }

    /// Install line `la` with `data`, returning the victim if it was dirty.
    pub fn fill(&mut self, la: LineAddr, data: [u8; LINE_BYTES], mpbt: bool) -> Option<Writeback> {
        debug_assert!(self.find(la).is_none(), "fill of already-present line");
        if self.lines.is_empty() {
            self.lines = vec![Line::empty(); self.sets * self.assoc];
        }
        self.tick += 1;
        let set = self.set_of(la);
        let victim = self
            .ways(set)
            .min_by_key(|&i| {
                let m = &self.lines[i].meta;
                if m.valid() {
                    m.lru
                } else {
                    0
                }
            })
            .expect("cache set has at least one way");
        let tag = self.tag_of(la);
        let old = self.lines[victim].meta;
        let wb = (old.valid() && old.dirty()).then(|| Writeback {
            line: (old.tag * self.sets as u32) + set as u32,
            data: self.lines[victim].data,
        });
        self.lines[victim] = Line {
            meta: Meta {
                tag,
                flags: F_VALID | if mpbt { F_MPBT } else { 0 },
                lru: self.tick,
            },
            data,
        };
        wb
    }

    /// Snapshot of a cached line's data (no LRU update); `None` if absent.
    pub fn peek_line(&self, la: LineAddr) -> Option<[u8; LINE_BYTES]> {
        self.find(la).map(|i| self.lines[i].data)
    }

    /// Overwrite a whole cached line with `data` and mark it dirty, if
    /// present. Used when a dirty line evicted from an upper level lands
    /// here: skipping this would leave a stale copy that later reads hit.
    /// Returns whether the line was present.
    pub fn absorb_writeback(&mut self, la: LineAddr, data: [u8; LINE_BYTES]) -> bool {
        if let Some(i) = self.find(la) {
            self.tick += 1;
            self.lines[i].meta.lru = self.tick;
            self.lines[i].data = data;
            self.lines[i].meta.flags |= F_DIRTY;
            true
        } else {
            false
        }
    }

    /// `CL1INVMB`: flash-invalidate every line tagged MPBT. No writeback —
    /// MPBT lines are write-through by construction and therefore clean.
    /// Returns the number of lines invalidated.
    pub fn invalidate_mpbt(&mut self) -> usize {
        let mut n = 0;
        for l in &mut self.lines {
            if l.meta.valid() && l.meta.mpbt() {
                l.meta.flags &= !F_VALID;
                n += 1;
            }
        }
        n
    }

    /// Invalidate one specific line if present (no writeback). Returns
    /// whether it was present.
    pub fn invalidate_line(&mut self, la: LineAddr) -> bool {
        if let Some(i) = self.find(la) {
            self.lines[i].meta.flags &= !F_VALID;
            true
        } else {
            false
        }
    }

    /// Invalidate everything, returning writebacks for dirty lines
    /// (software L2 flush routine — the paper notes it exists but is costly).
    pub fn flush_all(&mut self) -> Vec<Writeback> {
        let sets = self.sets as u32;
        let mut out = Vec::new();
        for (i, l) in self.lines.iter_mut().enumerate() {
            if l.meta.valid() && l.meta.dirty() {
                out.push(Writeback {
                    line: l.meta.tag * sets + (i / self.assoc) as u32,
                    data: l.data,
                });
            }
            l.meta.flags &= !F_VALID;
        }
        out
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.meta.valid()).count()
    }
}

/// The write-combine buffer: one line of pending write-through data.
#[derive(Clone)]
pub struct Wcb {
    line: Option<LineAddr>,
    mask: u32,
    data: [u8; LINE_BYTES],
}

/// A combined line leaving the WCB towards memory. `mask` has one bit per
/// byte; only set bytes are written.
pub struct WcbFlush {
    pub line: LineAddr,
    pub mask: u32,
    pub data: [u8; LINE_BYTES],
}

impl Default for Wcb {
    fn default() -> Self {
        Self::new()
    }
}

impl Wcb {
    pub fn new() -> Self {
        Wcb {
            line: None,
            mask: 0,
            data: [0; LINE_BYTES],
        }
    }

    /// Merge a store into the buffer. If the store touches a different line
    /// than the one currently buffered, the old line is flushed and returned
    /// (the "miss" case of the paper's description).
    pub fn merge(&mut self, la: LineAddr, offset: usize, len: usize, val: u64) -> Option<WcbFlush> {
        debug_assert!(offset + len <= LINE_BYTES);
        let flushed = if self.line.is_some() && self.line != Some(la) {
            self.take()
        } else {
            None
        };
        self.line = Some(la);
        self.data[offset..offset + len].copy_from_slice(&val.to_le_bytes()[..len]);
        self.mask |= (((1u64 << len) - 1) as u32) << offset;
        flushed
    }

    /// Is any write buffered?
    pub fn is_dirty(&self) -> bool {
        self.line.is_some()
    }

    /// Explicitly drain the buffer (lock release, mail send, fence).
    pub fn take(&mut self) -> Option<WcbFlush> {
        let line = self.line.take()?;
        let f = WcbFlush {
            line,
            mask: self.mask,
            data: self.data,
        };
        self.mask = 0;
        Some(f)
    }

    /// Overlay buffered bytes onto a value read from below (the core snoops
    /// its own write buffer, so its loads always see its own stores).
    #[inline]
    pub fn overlay(&self, la: LineAddr, offset: usize, len: usize, val: u64) -> u64 {
        if self.line != Some(la) {
            return val;
        }
        let mut out = val;
        for k in 0..len {
            if self.mask & (1 << (offset + k)) != 0 {
                out &= !(0xffu64 << (k * 8));
                out |= (self.data[offset + k] as u64) << (k * 8);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeom;

    fn small() -> Cache {
        // 4 sets x 2 ways x 32B = 256 B
        Cache::new(CacheGeom { size: 256, assoc: 2 })
    }

    fn line_of(byte: u8) -> [u8; LINE_BYTES] {
        [byte; LINE_BYTES]
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert_eq!(c.read(10, 0, 4), None);
        assert!(c.fill(10, line_of(0xAB), false).is_none());
        assert_eq!(c.read(10, 0, 4), Some(0xABABABAB));
        assert_eq!(c.read(10, 3, 2), Some(0xABAB));
    }

    #[test]
    fn write_hit_updates_data() {
        let mut c = small();
        c.fill(7, line_of(0), false);
        assert!(c.write_if_present(7, 4, 4, 0xdeadbeef, true));
        assert_eq!(c.read(7, 4, 4), Some(0xdeadbeef));
        // Write-through: not dirty, so eviction yields no writeback.
        assert!(!c.write_if_present(99, 0, 1, 1, true)); // miss: no allocate
    }

    #[test]
    fn write_back_dirty_evicts() {
        let mut c = small();
        // Set = la % 4. Lines 0, 4, 8 all map to set 0 in a 2-way cache.
        c.fill(0, line_of(1), false);
        assert!(c.write_if_present(0, 0, 4, 0x55aa55aa, false));
        c.fill(4, line_of(2), false);
        let wb = c.fill(8, line_of(3), false).expect("dirty victim");
        assert_eq!(wb.line, 0);
        assert_eq!(&wb.data[0..4], &[0xaa, 0x55, 0xaa, 0x55]);
        assert!(!c.contains(0));
    }

    #[test]
    fn lru_prefers_least_recent() {
        let mut c = small();
        c.fill(0, line_of(1), false);
        c.fill(4, line_of(2), false);
        c.read(0, 0, 1); // 0 is now more recent than 4
        c.fill(8, line_of(3), false);
        assert!(c.contains(0));
        assert!(!c.contains(4));
        assert!(c.contains(8));
    }

    #[test]
    fn cl1invmb_only_hits_mpbt_lines() {
        let mut c = small();
        c.fill(1, line_of(1), true);
        c.fill(2, line_of(2), false);
        c.fill(3, line_of(3), true);
        assert_eq!(c.invalidate_mpbt(), 2);
        assert!(!c.contains(1));
        assert!(c.contains(2));
        assert!(!c.contains(3));
    }

    #[test]
    fn flush_all_reports_dirty_lines() {
        let mut c = small();
        c.fill(5, line_of(1), false);
        c.write_if_present(5, 0, 1, 9, false);
        c.fill(6, line_of(2), false);
        let wbs = c.flush_all();
        assert_eq!(wbs.len(), 1);
        assert_eq!(wbs[0].line, 5);
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn wcb_combines_within_line() {
        let mut w = Wcb::new();
        assert!(w.merge(10, 0, 4, 0x11111111).is_none());
        assert!(w.merge(10, 4, 4, 0x22222222).is_none());
        assert!(w.is_dirty());
        let f = w.take().unwrap();
        assert_eq!(f.line, 10);
        assert_eq!(f.mask, 0xff);
        assert!(!w.is_dirty());
        assert!(w.take().is_none());
    }

    #[test]
    fn wcb_flushes_on_line_switch() {
        let mut w = Wcb::new();
        w.merge(10, 0, 4, 1);
        let f = w.merge(11, 0, 4, 2).expect("switch flushes");
        assert_eq!(f.line, 10);
        let f2 = w.take().unwrap();
        assert_eq!(f2.line, 11);
    }

    #[test]
    fn wcb_overlay_merges_own_stores() {
        let mut w = Wcb::new();
        w.merge(10, 2, 2, 0xBBAA);
        // Read 4 bytes at offset 0: bytes 2,3 come from the WCB.
        let v = w.overlay(10, 0, 4, 0x44332211);
        assert_eq!(v, 0xBBAA2211);
        // Other lines unaffected.
        assert_eq!(w.overlay(11, 0, 4, 0x44332211), 0x44332211);
    }

    #[test]
    fn invalidate_line_specific() {
        let mut c = small();
        c.fill(9, line_of(7), false);
        assert!(c.invalidate_line(9));
        assert!(!c.invalidate_line(9));
        assert!(!c.contains(9));
    }

    /// The SCC's L1 and L2 geometries.
    fn scc_geoms() -> [CacheGeom; 2] {
        let cfg = crate::config::SccConfig::default_with(crate::topology::Topology::scc48());
        [cfg.l1, cfg.l2]
    }

    /// What every non-filling method returns for line `la`, in call order.
    type Probe = (
        Option<u64>,
        bool,
        bool,
        Option<[u8; LINE_BYTES]>,
        bool,
        bool,
        usize,
        usize,
        usize,
    );

    fn probe(c: &mut Cache, la: LineAddr) -> Probe {
        (
            c.read(la, 3, 4),
            c.write_if_present(la, 0, 4, 0x1234, false),
            c.contains(la),
            c.peek_line(la),
            c.absorb_writeback(la, line_of(9)),
            c.invalidate_line(la),
            c.invalidate_mpbt(),
            c.flush_all().len(),
            c.valid_lines(),
        )
    }

    #[test]
    fn unallocated_cache_answers_like_an_empty_one() {
        for geom in scc_geoms() {
            let n = geom.sets() * geom.assoc;
            let mut lazy = Cache::new(geom);
            let mut eager = Cache {
                lines: vec![Line::empty(); n],
                ..Cache::new(geom)
            };
            assert_eq!(lazy.storage_lines(), 0, "{geom:?}: built without storage");
            for la in [0, 1, geom.sets() as LineAddr, 0x0123_4567] {
                assert_eq!(probe(&mut lazy, la), probe(&mut eager, la), "{geom:?} line {la}");
            }
            assert_eq!(lazy.storage_lines(), 0, "{geom:?}: lookups allocate nothing");
            // The first fill allocates; after the same fills both hold the
            // same lines.
            for la in [7, 7 + geom.sets() as LineAddr] {
                assert!(lazy.fill(la, line_of(2), false).is_none());
                assert!(eager.fill(la, line_of(2), false).is_none());
                assert_eq!(lazy.storage_lines(), n, "{geom:?}");
                assert_eq!(probe(&mut lazy, la), probe(&mut eager, la), "{geom:?} line {la}");
            }
        }
    }
}
