//! Multi-PE-host scaling model: one FC layer sharded across several PERMDNN
//! engines.
//!
//! The ROADMAP's production-scale framing asks what happens beyond a single
//! 32-PE chip: a serving deployment can put `H` engine *hosts* behind one
//! layer, each owning a contiguous slice of the output rows (the same
//! row-granular split [`block_row_ranges`] the software runtime uses, so the
//! hardware and software sharding stories line up). Every host streams the
//! same input activations, so activation traffic is replicated while weight
//! storage and compute partition; the layer finishes when the slowest host
//! finishes.
//!
//! The per-host simulations are *evaluated* on the
//! [`ParallelExecutor`] worker pool — the cycle model reusing the serving
//! runtime it models.

use permdnn_core::format::block_row_ranges;
use permdnn_runtime::ParallelExecutor;
use std::sync::Arc;

use crate::config::EngineConfig;
use crate::engine::{simulate_layer, EngineResult};
use crate::workload::FcWorkload;

/// Result of running one FC layer across several engine hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHostResult {
    /// Number of hosts the rows were sharded over.
    pub hosts: usize,
    /// Per-host engine results, in row-range order.
    pub per_host: Vec<EngineResult>,
    /// Cycles until the slowest host finishes (the layer latency).
    pub cycles: u64,
    /// Useful MACs summed over all hosts.
    pub useful_macs: u64,
    /// Speedup of the sharded layer over a single host running the whole
    /// layer (`single.cycles / max-host cycles`).
    pub speedup_vs_single: f64,
}

/// Simulates `workload` sharded row-wise across `hosts` identical engines,
/// evaluating the per-host cycle models on the executor's worker pool.
///
/// Sharding is **block-row granular**: hosts receive whole `p`-row blocks
/// (the split is [`block_row_ranges`], the same one the cluster row-shard
/// path uses), because a host owning a fractional block would break the
/// one-nonzero-per-column-per-block invariant the engine schedule relies on
/// — and would overcount MACs at every shard boundary, the same phantom-row
/// bug class the EIE model once had. Host count is clamped to the number of
/// block rows so every host owns at least one.
pub fn simulate_multi_host(
    config: &EngineConfig,
    workload: &FcWorkload,
    hosts: usize,
    exec: &ParallelExecutor,
) -> MultiHostResult {
    let single = simulate_layer(config, workload);
    // A ragged trailing block (rows % p) was already partial on a single host
    // and lands whole on the last shard, so MAC totals partition exactly for
    // any row count. The split is the same [`block_row_ranges`] the cluster
    // row-shard path uses; it yields at most one range per block row, which
    // clamps the host count.
    let mut ranges = block_row_ranges(workload.rows, workload.p, hosts.max(1));
    if ranges.is_empty() {
        ranges.push(0..0);
    }
    let hosts = ranges.len();

    let config = *config;
    let shard_workload = *workload;
    let per_host: Vec<EngineResult> = exec.map_shards(
        ranges,
        Arc::new(move |_, range: std::ops::Range<usize>| {
            let host_workload = FcWorkload {
                rows: range.len(),
                ..shard_workload
            };
            simulate_layer(&config, &host_workload)
        }),
    );

    let cycles = per_host.iter().map(|r| r.cycles).max().unwrap_or(0);
    let useful_macs = per_host.iter().map(|r| r.useful_macs).sum();
    let speedup_vs_single = if cycles == 0 {
        1.0
    } else {
        single.cycles as f64 / cycles as f64
    };
    MultiHostResult {
        hosts,
        per_host,
        cycles,
        useful_macs,
        speedup_vs_single,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::workload_by_name;

    fn exec() -> ParallelExecutor {
        ParallelExecutor::new(3)
    }

    #[test]
    fn one_host_matches_single_engine() {
        let cfg = EngineConfig::paper_32pe();
        let w = workload_by_name("Alex-FC6").unwrap();
        let multi = simulate_multi_host(&cfg, &w, 1, &exec());
        let single = simulate_layer(&cfg, &w);
        assert_eq!(multi.hosts, 1);
        assert_eq!(multi.per_host.len(), 1);
        assert_eq!(multi.cycles, single.cycles);
        assert_eq!(multi.useful_macs, single.useful_macs);
        assert!((multi.speedup_vs_single - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sharding_speeds_up_and_conserves_work() {
        let cfg = EngineConfig::paper_32pe();
        let w = FcWorkload {
            name: "even-split",
            rows: 4096,
            cols: 4096,
            p: 8,
            activation_nonzero_fraction: 0.5,
            description: "rows divisible by hosts·p",
        };
        let single = simulate_layer(&cfg, &w);
        let multi = simulate_multi_host(&cfg, &w, 4, &exec());
        assert_eq!(multi.hosts, 4);
        assert!(
            multi.cycles < single.cycles,
            "4 hosts should beat 1: {} vs {}",
            multi.cycles,
            single.cycles
        );
        assert!(multi.speedup_vs_single > 2.0, "{}", multi.speedup_vs_single);
        // Row ranges divisible by p here (1024 rows per host, p = 8): the MAC
        // total must partition exactly.
        assert_eq!(multi.useful_macs, single.useful_macs);
    }

    #[test]
    fn uneven_splits_conserve_macs_exactly() {
        // 4096 rows with p = 10: block-granular sharding means no shard
        // boundary ever splits a block, so the MAC total partitions exactly
        // even when rows/hosts is ragged.
        let cfg = EngineConfig::paper_32pe();
        let w = workload_by_name("Alex-FC6").unwrap(); // 4096 rows, p = 10
        let single = simulate_layer(&cfg, &w);
        for hosts in [2usize, 3, 5, 7] {
            let multi = simulate_multi_host(&cfg, &w, hosts, &exec());
            assert_eq!(
                multi.useful_macs, single.useful_macs,
                "{hosts} hosts must not invent phantom-block MACs"
            );
        }
    }

    #[test]
    fn host_count_is_clamped_to_block_rows() {
        let cfg = EngineConfig::paper_32pe();
        let w = FcWorkload {
            name: "tiny",
            rows: 32,
            cols: 64,
            p: 8,
            activation_nonzero_fraction: 1.0,
            description: "clamp test",
        };
        let multi = simulate_multi_host(&cfg, &w, 64, &exec());
        assert_eq!(multi.hosts, 4, "at most rows/p hosts");
    }

    #[test]
    fn results_are_deterministic_across_worker_counts() {
        let cfg = EngineConfig::paper_32pe();
        let w = workload_by_name("NMT-1").unwrap();
        let a = simulate_multi_host(&cfg, &w, 3, &ParallelExecutor::new(1));
        let b = simulate_multi_host(&cfg, &w, 3, &ParallelExecutor::new(7));
        assert_eq!(a, b);
    }
}
