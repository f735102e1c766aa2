//! Host-side measurement: `getrusage`, a counting allocator, the process's
//! own peak RSS, and the order statistics every timing is reported as.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Make glibc malloc keep what it is given: one arena, nothing trimmed
/// back to the kernel, nothing below 32 MiB served by a private `mmap`.
///
/// Why: each case builds a file of up to 128 MiB out of 64 KiB blocks and
/// drops it. With malloc's defaults, how much of that memory went back to
/// the kernel — and had to be faulted in again, zeroed, by the next case —
/// depended on where a few long-lived allocations happened to sit in the
/// heaps. `colwise_fig8` took anything from 2 000 to 88 000 minor faults
/// per iteration within one process and its wall time followed (100 to
/// 250 ms); a traced loop, which keeps more small objects alive, ran
/// *faster* than the untraced one before it. With these settings an
/// iteration after the warm-up takes no faults at all and the timed loop
/// measures the simulator's own work. What first-touch costs is still
/// reported: `setup_s` pays it, and `host.minor_faults` is counted on the
/// first, cold warm-up iteration.
pub fn retain_freed_memory() {
    #[cfg(target_env = "gnu")]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only stores the integers; it is called before
        // any other thread exists.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
            mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

/// The system allocator, counting while asked to. Host time on the shared
/// reference host moves by tens of percent between runs of the same code
/// (see the README); how much the simulator asks of the allocator does
/// not, so it is the host-cost figure that can be compared across runs.
/// Counting costs two locked adds per call — 30 % of `lock_storm`'s wall
/// time, at 40 million calls per iteration — so it is off except inside
/// [`count_allocations`], which no timing overlaps.
pub struct CountingAlloc;

/// How many [`count_allocations`] calls are under way.
static COUNTING: AtomicU32 = AtomicU32::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) > 0 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Run `f` with the allocator counting: its result, the calls of `alloc`,
/// `alloc_zeroed` and `realloc` every thread made meanwhile, and the bytes
/// they asked for. Calls that overlap (the tests') see each other's counts.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    COUNTING.fetch_add(1, Ordering::Relaxed);
    let out = f();
    COUNTING.fetch_sub(1, Ordering::Relaxed);
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - before.0,
        ALLOC_BYTES.load(Ordering::Relaxed) - before.1,
    )
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Pin this thread, and every thread it spawns from now on, to one CPU:
/// the highest-numbered one it may run on (CPU 0 usually takes the
/// machine's interrupts). Returns that CPU, or `None` if the kernel
/// refused and nothing changed.
///
/// Why: the rank threads hand work to each other through mutexes and
/// condition variables thousands of times per iteration. Across CPUs of a
/// shared virtual machine each hand-over is an inter-processor interrupt
/// whose cost moved by a factor of three over minutes (measured: a
/// four-thread ping-pong took 20 to 63 ms while single-thread arithmetic
/// stayed within 3 %), and every host-time metric moved with it. On one
/// CPU a hand-over is a local context switch and costs the same all day.
/// The price: host wall time is then CPU time; what a change gains by
/// running ranks in parallel does not show.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable mask of the size passed; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut only: CpuSet = [0; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live mask of the size passed, naming one CPU the
    // thread is already allowed on; pid 0 is the calling thread.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only) } == 0).then_some(cpu)
}

/// Resource use of this process so far (all threads).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_us: u64,
    pub sys_us: u64,
    pub minor_faults: u64,
    pub vol_ctx: u64,
    pub invol_ctx: u64,
}

fn rusage() -> RUsage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // target's C library fills (checked by the cfg above); 0 is
    // RUSAGE_SELF. The call has no other effect.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid pointer"
    );
    ru
}

/// Peak resident set of this process, in KiB: `VmHWM` of
/// `/proc/self/status`. `ru_maxrss` is only the fallback, because it
/// survives `exec`: a process started by `cargo run` reports at least what
/// cargo had resident when it forked (25 MiB here, more than two of the
/// four workloads ever use).
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim().strip_suffix("kB")?.trim().parse().ok()
        })
        .unwrap_or_else(|| rusage().maxrss as u64)
}

impl Usage {
    pub fn now() -> Usage {
        let ru = rusage();
        let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
        Usage {
            user_us: us(&ru.utime),
            sys_us: us(&ru.stime),
            minor_faults: ru.minflt as u64,
            vol_ctx: ru.nvcsw as u64,
            invol_ctx: ru.nivcsw as u64,
        }
    }

    /// What happened since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
            minor_faults: self.minor_faults - earlier.minor_faults,
            vol_ctx: self.vol_ctx - earlier.vol_ctx,
            invol_ctx: self.invol_ctx - earlier.invol_ctx,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples when the count is even); 0 for
/// no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail percentile: the highest one, up to p90, with at least ten
/// samples beyond it, and never below the upper median — p58 of 24
/// samples, p90 of 100 or more. Stopping at p90 keeps a run with hundreds
/// of samples from reporting its few worst ones.
pub fn tail(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n => {
            let beyond = 10.max(n / 10);
            v[n.saturating_sub(beyond + 1).max(n / 2)]
        }
    }
}

/// (max − min) / median; 0 when the median is 0.
pub fn spread_ratio(values: &[f64]) -> f64 {
    let v = sorted(values);
    let m = median(&v);
    if v.is_empty() || m == 0.0 {
        0.0
    } else {
        (v[v.len() - 1] - v[0]) / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=24).map(f64::from).collect();
        assert_eq!(median(&v), 12.5);
        assert_eq!(tail(&v), 14.0); // ten samples beyond it
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), 90.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), 900.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(spread_ratio(&[9.0, 10.0, 12.0]), 0.3);
    }

    #[test]
    fn rusage_moves_forward() {
        let a = Usage::now();
        let mut x = vec![0u8; 8 << 20];
        for i in (0..x.len()).step_by(4096) {
            x[i] = 1;
        }
        std::hint::black_box(&x);
        let d = Usage::now().since(&a);
        assert!(d.minor_faults > 0);
        assert!(peak_rss_kib() >= 8 << 10);
    }

    #[test]
    fn allocations_are_counted_while_asked() {
        // Other tests run beside this one, so only a lower limit holds.
        let (v, calls, bytes) = count_allocations(|| vec![0u8; 1 << 20]);
        assert!(calls >= 1 && bytes >= 1 << 20);
        assert_eq!(v.len(), 1 << 20);
    }
}
