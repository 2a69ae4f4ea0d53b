//! The clocks the bounded metrics are read from.
//!
//! On a shared host the hypervisor now and then gives this machine's CPUs
//! to other guests (steal time). A wall clock counts that time as the
//! program's; a CPU clock does not, as the kernel leaves steal out of a
//! thread's run time. On a two-core shared host, the serial wall time of
//! one `forrester_fit` run ranged from 4.96 to 6.61 s across four
//! processes of the same build, while its CPU time ranged from 4.73 to
//! 5.05 s. So the work a bounded metric times runs on one thread, or is
//! pinned to one CPU, and is read from a CPU clock.

use std::sync::OnceLock;
use std::time::Instant;

/// Which clock a timing is read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Clock {
    Wall,
    /// CPU time of the calling thread.
    ThreadCpu,
    /// CPU time of every thread of this process, those that have ended
    /// included.
    ProcessCpu,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(id: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

impl Clock {
    /// Seconds since an arbitrary origin fixed per clock (and, for
    /// [`Clock::ThreadCpu`], per thread); only differences mean anything.
    pub fn now(self) -> f64 {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        match self {
            Clock::Wall => ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64(),
            Clock::ThreadCpu => cpu_clock(CLOCK_THREAD_CPUTIME_ID),
            Clock::ProcessCpu => cpu_clock(CLOCK_PROCESS_CPUTIME_ID),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_not_with_sleep() {
        for clock in [Clock::ThreadCpu, Clock::ProcessCpu] {
            let t = clock.now();
            let mut x = 0u64;
            for i in 0..5_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            let busy = clock.now() - t;
            assert!(busy > 0.0, "{clock:?} did not advance over busy work");
            let t = clock.now();
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(clock.now() - t < 0.025, "{clock:?} counted a sleep");
        }
        let t = Clock::Wall.now();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(Clock::Wall.now() - t >= 0.005);
    }
}
