//! The clock every end-to-end time is read on: this process's CPU time.
//!
//! The benchmark's host is a shared VM whose hypervisor takes the vCPUs
//! away for stretches (the `steal` column of `/proc/stat`): a 3 s busy
//! loop measured 3.00 s of wall time but 2.65 s of CPU time. Wall time
//! counts those stretches; the process CPU clock does not, on a kernel
//! with paravirtual steal accounting (`CONFIG_PARAVIRT_TIME_ACCOUNTING`).

/// A reading of this process's CPU clock (all threads, exited ones
/// included).
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant(f64);

impl CpuInstant {
    pub fn now() -> CpuInstant {
        CpuInstant(process_cpu_seconds())
    }

    /// CPU seconds this process has used since `self`.
    pub fn elapsed_s(self) -> f64 {
        process_cpu_seconds() - self.0
    }
}

/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` in seconds.
fn process_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a Linux constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_not_with_sleep() {
        let t = CpuInstant::now();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(t.elapsed_s() < 0.02, "sleeping used CPU time");
        let t = CpuInstant::now();
        let mut x = 0u64;
        while t.elapsed_s() < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }
}
