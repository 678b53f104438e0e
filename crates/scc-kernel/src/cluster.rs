//! Collective boot: run one kernel instance per participating core.

use crate::frames::SharedFrames;
use crate::kernel::Kernel;
use parking_lot::Mutex;
use scc_hw::machine::{CoreResult, MachineInner};
use scc_hw::{CoreId, HwError, Machine, SccConfig};
use std::sync::Arc;

/// Cluster-wide state shared by all kernels of one machine.
pub struct ClusterShared {
    /// The machine's globally visible devices.
    pub machine: Arc<MachineInner>,
    /// Shared-region frame allocator (the header prefix is excluded).
    pub frames: SharedFrames,
    /// Bump allocator over the header prefix of the shared region, used by
    /// system services (SVM ownership vector, barrier words, region table).
    header: Mutex<HeaderArena>,
    /// Named header allocations: the first caller allocates, later callers
    /// get the same physical address (SPMD services bootstrap through this).
    named: Mutex<std::collections::HashMap<String, u32>>,
    /// Machine-wide singleton services (e.g. the SVM system's shared
    /// state), keyed by name.
    services: Mutex<std::collections::HashMap<String, Arc<dyn std::any::Any + Send + Sync>>>,
}

struct HeaderArena {
    next: u32,
    end: u32,
}

/// Bytes of the shared region reserved for system structures.
pub fn header_bytes(mach: &MachineInner) -> u32 {
    // Ownership vector (4 B/page) + first-touch fallback table (2 B/page)
    // + version (4 B/page) + multi-word copyset (8 B/page per 64 cores)
    // + per-core grant-set scratch rows + barriers/locks, rounded up to
    // whole pages.
    let pages = mach.map.shared_pages() as u32;
    let ncores = mach.cfg.ncores as u32;
    let cs_words = ncores.div_ceil(64);
    let want = pages * (10 + 8 * cs_words) + ncores * 8 * cs_words + 64 * 1024;
    (want + 4095) & !4095
}

impl ClusterShared {
    pub fn new(machine: Arc<MachineInner>) -> Arc<Self> {
        let hb = header_bytes(&machine);
        let frames = SharedFrames::new(&machine, hb);
        let base = machine.map.shared_base();
        Arc::new(ClusterShared {
            frames,
            header: Mutex::new(HeaderArena {
                next: base,
                end: base + hb,
            }),
            named: Mutex::new(std::collections::HashMap::new()),
            services: Mutex::new(std::collections::HashMap::new()),
            machine,
        })
    }

    /// Allocate `bytes` (aligned to `align`) from the shared header arena.
    /// Returns a physical address. Panics when the arena is exhausted —
    /// that is a sizing bug, not a runtime condition.
    pub fn alloc_header(&self, bytes: u32, align: u32) -> u32 {
        assert!(align.is_power_of_two());
        let mut h = self.header.lock();
        let pa = (h.next + align - 1) & !(align - 1);
        assert!(
            pa + bytes <= h.end,
            "shared header arena exhausted ({} wanted, {} left)",
            bytes,
            h.end - pa
        );
        h.next = pa + bytes;
        pa
    }

    /// Allocate-or-look-up a named header region. All cores calling with the
    /// same name receive the same physical address; the region is zeroed on
    /// first allocation.
    pub fn named_header(&self, name: &str, bytes: u32, align: u32) -> u32 {
        if let Some(pa) = self.named.lock().get(name) {
            return *pa;
        }
        let mut named = self.named.lock();
        // Double-checked under the lock.
        if let Some(pa) = named.get(name) {
            return *pa;
        }
        let pa = self.alloc_header(bytes, align);
        for off in (0..bytes).step_by(4) {
            self.machine.ram.write(pa + off, 4, 0);
        }
        named.insert(name.to_string(), pa);
        pa
    }

    /// Fetch the named machine-wide service, constructing it on first use.
    pub fn service_get_or_init<T, F>(&self, name: &str, init: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> Arc<T>,
    {
        let mut services = self.services.lock();
        let entry = services
            .entry(name.to_string())
            .or_insert_with(|| init() as Arc<dyn std::any::Any + Send + Sync>);
        Arc::clone(entry)
            .downcast::<T>()
            .expect("service type mismatch")
    }
}

/// A simulated SCC plus the cluster-wide kernel state; the entry point for
/// everything above the raw hardware.
pub struct Cluster {
    machine: Machine,
    shared: Arc<ClusterShared>,
}

impl Cluster {
    /// Build a machine and its cluster state.
    pub fn new(cfg: SccConfig) -> Result<Cluster, HwError> {
        let machine = Machine::new(cfg)?;
        let shared = ClusterShared::new(Arc::clone(machine.inner()));
        Ok(Cluster { machine, shared })
    }

    /// The underlying machine (peeks, configuration).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Cluster-shared kernel state.
    pub fn shared(&self) -> &Arc<ClusterShared> {
        &self.shared
    }

    /// Boot kernels on the first `n` cores and run `body` on each.
    pub fn run<R, F>(&self, n: usize, body: F) -> Result<Vec<CoreResult<R>>, HwError>
    where
        R: Send,
        F: Fn(&mut Kernel<'_>) -> R + Send + Sync,
    {
        self.run_on(&self.machine.first_cores(n)?, body)
    }

    /// Boot kernels on an explicit core set and run `body` on each.
    pub fn run_on<R, F>(&self, cores: &[CoreId], body: F) -> Result<Vec<CoreResult<R>>, HwError>
    where
        R: Send,
        F: Fn(&mut Kernel<'_>) -> R + Send + Sync,
    {
        // Validate before the host-side clear below, which would otherwise
        // index an MPB that does not exist.
        self.machine.check_cores(cores)?;
        // Host-clear each participant's collective MPB region before any
        // core runs: the tree barrier's arrival/release flags are epoch
        // counters starting from zero, and a previous `run_on` on this
        // machine may have left higher values behind. Clearing from a
        // kernel would race an early-arriving tree child; clearing here is
        // deterministic (no simulated core has executed yet).
        for c in cores {
            let base = scc_hw::mpb::MpbArray::pa(*c, scc_hw::config::MPB_COLL_OFF);
            for w in 0..(scc_hw::config::MPB_COLL_BYTES as u32 / 4) {
                self.machine.inner().mpb.write(base + w * 4, 4, 0);
            }
        }
        let participants = Arc::new(cores.to_vec());
        let shared = Arc::clone(&self.shared);
        let n = cores.len();
        let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        self.machine.run_on(cores, move |hw| {
            let mut k = Kernel::boot(hw, Arc::clone(&shared), Arc::clone(&participants));
            let r = body(&mut k);
            // A real kernel keeps servicing interrupts (e.g. SVM ownership
            // requests) in its idle loop after the application exits; park
            // here responsively until every participant's body returned.
            done.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
            let done = Arc::clone(&done);
            k.wait_event("cluster teardown", move || {
                (done.load(std::sync::atomic::Ordering::Acquire) == n).then_some(((), 0))
            });
            r
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_arena_allocates_aligned() {
        let cl = Cluster::new(SccConfig::small()).unwrap();
        let a = cl.shared().alloc_header(10, 4);
        let b = cl.shared().alloc_header(10, 64);
        assert_eq!(a % 4, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 10);
        assert!(a >= cl.machine().inner().map.shared_base());
    }

    #[test]
    fn frames_exclude_header() {
        let cl = Cluster::new(SccConfig::small()).unwrap();
        let mach = cl.machine().inner();
        let hb = header_bytes(mach);
        let total: usize = cl.shared().frames.free_counts().iter().sum();
        assert_eq!(
            total,
            mach.map.shared_pages() - (hb as usize / 4096),
            "header pages must not be handed out as frames"
        );
    }

    #[test]
    fn core_lists_beyond_the_machine_are_typed_errors() {
        // Checked before the host-side MPB clear, which would index an MPB
        // that does not exist.
        let cl = Cluster::new(SccConfig::small()).unwrap();
        let n = cl.machine().cfg().ncores;
        assert!(matches!(cl.run(n + 1, |_| ()), Err(HwError::BadConfig(_))));
        assert!(matches!(
            cl.run_on(&[CoreId::new(n)], |_| ()),
            Err(HwError::BadConfig(_))
        ));
        assert!(matches!(cl.run_on(&[], |_| ()), Err(HwError::BadConfig(_))));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn header_arena_exhaustion_panics() {
        let cl = Cluster::new(SccConfig::small()).unwrap();
        let hb = header_bytes(cl.machine().inner());
        cl.shared().alloc_header(hb + 4096, 4);
    }
}
