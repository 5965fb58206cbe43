//! DRAM activity counters consumed by the traffic and energy models.

/// Aggregate DRAM statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub activates: u64,
    pub refreshes: u64,
    /// Latest data-transfer completion (CPU cycles) — a lower bound on the
    /// memory-system busy horizon.
    pub last_complete: u64,
}

impl DramStats {
    /// Total bytes moved across the memory channels.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_bytes_sums_both_directions() {
        let s = DramStats {
            reads: 10,
            writes: 5,
            bytes_read: 640,
            bytes_written: 320,
            ..Default::default()
        };
        assert_eq!(s.total_bytes(), 960);
    }
}
