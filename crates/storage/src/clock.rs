//! Simulated wall clock with a CPU / I/O-wait breakdown.
//!
//! All pathix components charge their work against a shared [`SimClock`]:
//! operators charge CPU nanoseconds for navigation steps, node tests, hash
//! lookups and set maintenance, while storage devices advance the clock when
//! the execution blocks on I/O. The split lets us regenerate the paper's
//! Table 3 (total execution time vs. CPU time per plan).

use std::cell::Cell;

/// A monotonically increasing simulated clock, in nanoseconds.
///
/// The clock distinguishes *CPU time* (work actively performed by the query
/// engine) from *I/O wait* (time the engine spends blocked on the storage
/// device). Asynchronous I/O that completes in the background while the CPU
/// is busy does not contribute to I/O wait — exactly the overlap the paper's
/// `XSchedule` operator exploits.
///
/// Interior mutability (`Cell`) keeps the API ergonomic: the clock is shared
/// by reference between the buffer manager, devices and operators.
#[derive(Debug, Default)]
pub struct SimClock {
    now_ns: Cell<u64>,
    cpu_ns: Cell<u64>,
    io_wait_ns: Cell<u64>,
}

impl SimClock {
    /// Creates a clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.now_ns.get()
    }

    /// Total CPU nanoseconds charged so far.
    #[inline]
    pub fn cpu_ns(&self) -> u64 {
        self.cpu_ns.get()
    }

    /// Total nanoseconds spent blocked on I/O so far.
    #[inline]
    pub fn io_wait_ns(&self) -> u64 {
        self.io_wait_ns.get()
    }

    /// Charges `ns` nanoseconds of CPU work, advancing the clock.
    #[inline]
    pub fn charge_cpu(&self, ns: u64) {
        self.now_ns.set(self.now_ns.get() + ns);
        self.cpu_ns.set(self.cpu_ns.get() + ns);
    }

    /// Blocks until simulated time `t` (no-op if `t` is in the past).
    ///
    /// The skipped interval is accounted as I/O wait.
    #[inline]
    pub fn wait_until(&self, t_ns: u64) {
        let now = self.now_ns.get();
        if t_ns > now {
            self.io_wait_ns.set(self.io_wait_ns.get() + (t_ns - now));
            self.now_ns.set(t_ns);
        }
    }

    /// Returns a snapshot of the elapsed/CPU/I/O-wait split.
    pub fn breakdown(&self) -> TimeBreakdown {
        TimeBreakdown {
            total_ns: self.now_ns.get(),
            cpu_ns: self.cpu_ns.get(),
            io_wait_ns: self.io_wait_ns.get(),
        }
    }

    /// Resets the clock to zero.
    pub fn reset(&self) {
        self.now_ns.set(0);
        self.cpu_ns.set(0);
        self.io_wait_ns.set(0);
    }
}

/// Snapshot of simulated time, split into CPU and I/O-wait portions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimeBreakdown {
    /// Total elapsed simulated nanoseconds.
    pub total_ns: u64,
    /// CPU nanoseconds.
    pub cpu_ns: u64,
    /// Nanoseconds spent blocked on I/O.
    pub io_wait_ns: u64,
}

impl TimeBreakdown {
    /// Total time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// CPU time in seconds.
    pub fn cpu_secs(&self) -> f64 {
        self.cpu_ns as f64 / 1e9
    }

    /// CPU share of total time, in `[0, 1]`; zero when no time has elapsed.
    pub fn cpu_fraction(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.cpu_ns as f64 / self.total_ns as f64
        }
    }

    /// Difference of two snapshots (`self` must be the later one).
    pub fn since(&self, earlier: &TimeBreakdown) -> TimeBreakdown {
        *self - *earlier
    }
}

/// Implements the counter algebra for a struct of cumulative `u64`
/// counters: `Sub` (later snapshot minus earlier one) and `AddAssign`
/// (summing deltas), both field-wise. The field list must name every
/// field: the impls destructure the struct without `..`, so a counter
/// added to the struct but not here fails to compile.
macro_rules! counter_algebra {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl std::ops::Sub for $ty {
            type Output = $ty;
            fn sub(self, earlier: $ty) -> $ty {
                let $ty { $($field),+ } = self;
                $ty { $($field: $field - earlier.$field),+ }
            }
        }
        impl std::ops::AddAssign for $ty {
            fn add_assign(&mut self, other: $ty) {
                let $ty { $($field),+ } = other;
                $(self.$field += $field;)+
            }
        }
    };
}
pub(crate) use counter_algebra;

counter_algebra!(TimeBreakdown {
    total_ns,
    cpu_ns,
    io_wait_ns
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_cpu_advances_now_and_cpu() {
        let c = SimClock::new();
        c.charge_cpu(100);
        c.charge_cpu(50);
        assert_eq!(c.now_ns(), 150);
        assert_eq!(c.cpu_ns(), 150);
        assert_eq!(c.io_wait_ns(), 0);
    }

    #[test]
    fn wait_until_accounts_io_wait() {
        let c = SimClock::new();
        c.charge_cpu(100);
        c.wait_until(1_000);
        assert_eq!(c.now_ns(), 1_000);
        assert_eq!(c.cpu_ns(), 100);
        assert_eq!(c.io_wait_ns(), 900);
    }

    #[test]
    fn wait_until_past_is_noop() {
        let c = SimClock::new();
        c.charge_cpu(500);
        c.wait_until(200);
        assert_eq!(c.now_ns(), 500);
        assert_eq!(c.io_wait_ns(), 0);
    }

    #[test]
    fn breakdown_since() {
        let c = SimClock::new();
        c.charge_cpu(100);
        let b0 = c.breakdown();
        c.charge_cpu(40);
        c.wait_until(200);
        let b1 = c.breakdown();
        let d = b1.since(&b0);
        assert_eq!(d.cpu_ns, 40);
        assert_eq!(d.total_ns, 100);
        assert_eq!(d.io_wait_ns, 60);
    }

    #[test]
    fn cpu_fraction() {
        let c = SimClock::new();
        assert_eq!(c.breakdown().cpu_fraction(), 0.0);
        c.charge_cpu(100);
        c.wait_until(400);
        let f = c.breakdown().cpu_fraction();
        assert!((f - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = SimClock::new();
        c.charge_cpu(10);
        c.wait_until(30);
        c.reset();
        assert_eq!(c.breakdown(), TimeBreakdown::default());
    }
}
