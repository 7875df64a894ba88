//! Execution reports: simulated-time breakdown plus buffer/device/algebra
//! statistics — the raw material for every table and figure of the paper's
//! evaluation.

use pathix_storage::{BufferStats, DeviceStats, TimeBreakdown};
use std::fmt;

/// Everything measured about one plan execution.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Label of the plan ("Simple", "XSchedule", "XScan").
    pub method: String,
    /// Simulated wall-clock delta (total / CPU / I/O wait).
    pub time: TimeBreakdown,
    /// Buffer-manager activity during the run.
    pub buffer: BufferStats,
    /// Device activity during the run.
    pub device: DeviceStats,
    /// Stored nodes touched by navigation.
    pub nodes_visited: u64,
    /// Node tests evaluated.
    pub node_tests: u64,
    /// Border nodes encountered.
    pub borders: u64,
    /// Path instances created/forwarded.
    pub instances: u64,
    /// Result nodes produced (after duplicate elimination).
    pub results: u64,
    /// Entries added to `R`.
    pub r_inserts: u64,
    /// Instances stored in `S`.
    pub s_inserts: u64,
    /// Peak size of `S`.
    pub s_peak: u64,
    /// Entries pushed to `Q`.
    pub q_pushes: u64,
    /// Speculative instances generated by the I/O operator.
    pub speculative_generated: u64,
    /// Whether the plan reverted to fallback mode.
    pub fallback: bool,
    /// Whether the governor degraded the plan at its soft deadline. Implies
    /// `fallback`; false for a plain `mem_limit` fallback and for
    /// ungoverned runs.
    pub degraded: bool,
}

/// `a − b`, field-wise (cumulative counters).
pub fn buffer_delta(a: BufferStats, b: BufferStats) -> BufferStats {
    a - b
}

/// `a − b`, field-wise (cumulative counters).
pub fn device_delta(a: DeviceStats, b: DeviceStats) -> DeviceStats {
    a - b
}

impl ExecReport {
    /// Total simulated seconds.
    pub fn total_secs(&self) -> f64 {
        self.time.total_secs()
    }

    /// CPU seconds.
    pub fn cpu_secs(&self) -> f64 {
        self.time.cpu_secs()
    }

    /// CPU share of the total, `[0, 1]`.
    pub fn cpu_fraction(&self) -> f64 {
        self.time.cpu_fraction()
    }

    /// Merges another report into this one (for multi-path queries like
    /// Q7: the sums of counters; times are additive deltas). `s_peak` takes
    /// the maximum and the flags are ORed; the method label is kept.
    pub fn absorb(&mut self, other: &ExecReport) {
        self.time += other.time;
        self.buffer += other.buffer;
        self.device += other.device;
        self.nodes_visited += other.nodes_visited;
        self.node_tests += other.node_tests;
        self.borders += other.borders;
        self.instances += other.instances;
        self.results += other.results;
        self.r_inserts += other.r_inserts;
        self.s_inserts += other.s_inserts;
        self.s_peak = self.s_peak.max(other.s_peak);
        self.q_pushes += other.q_pushes;
        self.speculative_generated += other.speculative_generated;
        self.fallback |= other.fallback;
        self.degraded |= other.degraded;
    }
}

impl fmt::Display for ExecReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<10} total {:>9.3}s  cpu {:>8.3}s ({:>4.1}%)  io-wait {:>8.3}s",
            self.method,
            self.total_secs(),
            self.cpu_secs(),
            100.0 * self.cpu_fraction(),
            self.time.io_wait_ns as f64 / 1e9,
        )?;
        writeln!(
            f,
            "  io: {} reads ({} seq, {} random, seek dist {} pages), buffer {} fixes / {:.1}% hits",
            self.device.reads,
            self.device.sequential_reads,
            self.device.random_reads,
            self.device.seek_distance_pages,
            self.buffer.fixes,
            100.0 * self.buffer.hit_rate(),
        )?;
        write!(
            f,
            "  algebra: {} results, {} instances, {} borders, R+{} S+{} (peak {}) Q+{} spec {}{}{}",
            self.results,
            self.instances,
            self.borders,
            self.r_inserts,
            self.s_inserts,
            self.s_peak,
            self.q_pushes,
            self.speculative_generated,
            if self.fallback { " [fallback]" } else { "" },
            if self.degraded { " [degraded]" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn time(base: u64) -> TimeBreakdown {
        TimeBreakdown {
            total_ns: base + 1,
            cpu_ns: base + 2,
            io_wait_ns: base + 3,
        }
    }

    fn buffer(base: u64) -> BufferStats {
        BufferStats {
            fixes: base + 1,
            hits: base + 2,
            misses: base + 3,
            async_loads: base + 4,
            evictions: base + 5,
            prefetches: base + 6,
            capacity_overflows: base + 7,
        }
    }

    fn device(base: u64) -> DeviceStats {
        DeviceStats {
            reads: base + 1,
            sequential_reads: base + 2,
            random_reads: base + 3,
            seek_distance_pages: base + 4,
            busy_ns: base + 5,
            retries: base + 7,
        }
    }

    fn report(base: u64, flag: bool) -> ExecReport {
        ExecReport {
            method: format!("m{base}"),
            time: time(base),
            buffer: buffer(base),
            device: device(base),
            nodes_visited: base + 1,
            node_tests: base + 2,
            borders: base + 3,
            instances: base + 4,
            results: base + 5,
            r_inserts: base + 6,
            s_inserts: base + 7,
            s_peak: base + 8,
            q_pushes: base + 9,
            speculative_generated: base + 10,
            fallback: flag,
            degraded: !flag,
        }
    }

    fn counters(r: &ExecReport) -> [u64; 9] {
        [
            r.nodes_visited,
            r.node_tests,
            r.borders,
            r.instances,
            r.results,
            r.r_inserts,
            r.s_inserts,
            r.q_pushes,
            r.speculative_generated,
        ]
    }

    fn round_trip<T>(a: T, b: T)
    where
        T: Copy + PartialEq + fmt::Debug + std::ops::AddAssign + std::ops::Sub<Output = T>,
    {
        let mut sum = a;
        sum += b;
        assert_ne!(sum, a);
        assert_eq!(sum - b, a);
    }

    #[test]
    fn stats_algebra_round_trips_and_absorb_merges() {
        // Every field distinct and non-zero, so a field the algebra drops
        // or swaps cannot cancel out.
        round_trip(time(10), time(20));
        round_trip(buffer(10), buffer(20));
        round_trip(device(10), device(20));
        assert_eq!(
            buffer_delta(buffer(30), buffer(10)),
            buffer(30) - buffer(10)
        );
        assert_eq!(
            device_delta(device(30), device(10)),
            device(30) - device(10)
        );

        let (a, b) = (report(100, true), report(200, false));
        let mut merged = a.clone();
        merged.absorb(&b);
        assert_eq!(merged.method, "m100", "the label is kept");
        assert_eq!(merged.time - b.time, a.time);
        assert_eq!(merged.buffer - b.buffer, a.buffer);
        assert_eq!(merged.device - b.device, a.device);
        let sums: Vec<u64> = counters(&a)
            .iter()
            .zip(counters(&b))
            .map(|(x, y)| x + y)
            .collect();
        assert_eq!(counters(&merged).to_vec(), sums);
        assert_eq!(merged.s_peak, b.s_peak, "peaks take the maximum");
        assert!(merged.fallback && merged.degraded, "flags are ORed");
    }

    #[test]
    fn display_contains_method_and_results() {
        let r = ExecReport {
            method: "XScan".into(),
            results: 7,
            ..Default::default()
        };
        let s = r.to_string();
        assert!(s.contains("XScan"));
        assert!(s.contains("7 results"));
    }
}
