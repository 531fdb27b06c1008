//! The benchmark's vocabulary — workload and metric names, as `BENCHMARK.json`
//! lists them — and the result line every run ends with.

use crate::check::Tally;
use std::collections::BTreeMap;

/// Workload names, each with the reason it exists.
pub const WORKLOADS: [(&str, &str); 8] = [
    ("grid_factor", "factorize-then-iterate across two real worker processes over TCP: factorization sets the time"),
    ("grid_iter", "one thread per band, 25 us of arithmetic in a 65 us iteration: thread spawn, hand-off and votes set the time"),
    ("grid_iter_tcp", "grid_iter's arithmetic with every halo and vote framed and sent through a socket"),
    ("krylov_fgmres", "FGMRES in the calling thread, no messages: sparse triangular solves, spmv and Gram-Schmidt"),
    ("krylov_band", "krylov_fgmres over BandLu: the only workload that reaches msplit-dense"),
    ("serve_warm", "two closed-loop tenants, every request a cache hit and coalescible: codec, admission, window, batch"),
    ("serve_cold", "two closed-loop tenants, every request a never-seen matrix: decode, fingerprint, miss, factorize, evict"),
    ("serve_mixed", "a warm tenant measured beside a cold one: solo window waits and head-of-line behind factorizations"),
];

/// End-to-end metrics: name and unit.  Every workload reports every one.
pub const END_TO_END: [(&str, &str); 5] = [
    ("solve_ms_p50", "ms"),
    ("solve_ms_p90", "ms"),
    ("solves_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: name and unit, `<crate>.<metric>`.  A traced run
/// reports every one; 0 stands for "this layer is not on this workload's
/// path" (README.md says which workloads reach which layer).
pub const PER_LAYER: [(&str, &str); 55] = [
    ("sparse.spmv_us", "us"),
    ("sparse.spmv_bytes", "B"),
    ("sparse.fingerprint_us", "us"),
    ("direct.factorize_ms_sum", "ms"),
    ("direct.factorize_ms_max", "ms"),
    ("direct.factor_nnz", "count"),
    ("direct.factor_flops", "count"),
    ("direct.trsv_us", "us"),
    ("dense.band_factor_ms", "ms"),
    ("dense.band_solve_us", "us"),
    ("comm.inproc_roundtrip_us", "us"),
    ("comm.tcp_roundtrip_us", "us"),
    ("comm.frame_encode_us", "us"),
    ("comm.frame_decode_us", "us"),
    ("comm.msgs_per_iter", "count"),
    ("comm.bytes_per_iter", "B"),
    ("comm.mesh_connect_ms", "ms"),
    ("core.decompose_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.prepared_bytes", "B"),
    ("core.step_us", "us"),
    ("core.ingest_us", "us"),
    ("core.outgoing_us", "us"),
    ("core.send_us", "us"),
    ("core.outer_iterations", "count"),
    ("core.iter_us", "us"),
    ("core.explained_iter_us", "us"),
    ("core.solve_fixed_us", "us"),
    ("core.driver_overhead_us", "us"),
    ("core.fastpath_share", "share"),
    ("core.reach_share", "share"),
    ("core.sweep_apply_us", "us"),
    ("core.krylov_overhead_us", "us"),
    ("core.sequential_ms", "ms"),
    ("core.launch_overhead_s", "s"),
    ("engine.submit_to_done_ms_p50", "ms"),
    ("engine.cache_hit_share", "share"),
    ("engine.factorizations", "count"),
    ("engine.cache_evictions", "count"),
    ("engine.single_flight_waits", "count"),
    ("engine.factorize_busy_s", "s"),
    ("engine.solve_busy_s", "s"),
    ("serve.queue_us_p50", "us"),
    ("serve.coalesced_share", "share"),
    ("serve.batches", "count"),
    ("serve.rejected", "count"),
    ("serve.warm_req_ms_p50", "ms"),
    ("serve.cold_req_ms_p50", "ms"),
    ("serve.cold_req_ms_p90", "ms"),
    ("serve.matrix_encode_ms", "ms"),
    ("serve.matrix_decode_ms", "ms"),
    ("serve.config_codec_us", "us"),
    ("serve.overhead_ms", "ms"),
    ("harness.layer_sum_share", "share"),
    ("harness.trace_overhead_share", "share"),
];

/// What one run of one workload was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    pub trace: bool,
    /// Divides warm-up counts and set-up repetitions (`--quick`).
    pub quick: bool,
}

impl RunArgs {
    /// How many times set-up runs; `setup_s` is the median.
    pub fn setup_repetitions(&self) -> usize {
        if self.quick || self.trace {
            1
        } else {
            3
        }
    }

    pub fn warmup(&self, count: usize) -> usize {
        if self.quick {
            (count / 20).max(1)
        } else {
            count
        }
    }
}

/// Metric values by name; what a run does not set reads as 0.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run of one workload measured.
pub struct RunResult {
    pub tally: Tally,
    pub values: Values,
    /// Wall time of the timed section.
    pub timed_seconds: f64,
}

impl RunResult {
    /// The run's result as one JSON object: `correct`, `attempted`, `failed`
    /// and the metrics of `names` with their units.
    pub fn json_line(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                // JSON has no NaN or infinity.
                let value = self.values.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; it must name exactly what the
    /// binary reports.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let json = include_str!("../../../../../BENCHMARK.json");
        let count = |section: &str| {
            let start = json.find(&format!("\"{section}\"")).expect(section);
            let end = start + json[start..].find(']').expect("closing bracket");
            json[start..end].matches("\"name\"").count()
        };
        assert_eq!(count("workloads"), WORKLOADS.len());
        assert_eq!(count("end_to_end"), END_TO_END.len());
        assert_eq!(count("per_layer"), PER_LAYER.len());
        let names = WORKLOADS.iter().map(|w| w.0);
        let names = names.chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0));
        for name in names {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "unit of {name}"
            );
        }
    }

    #[test]
    fn the_result_line_has_the_contract_keys() {
        let mut values = Values::new();
        values.insert("setup_s", 0.5);
        let result = RunResult {
            tally: Tally {
                attempted: 3,
                failed: 1,
                reasons: Vec::new(),
            },
            values,
            timed_seconds: 1.0,
        };
        assert_eq!(
            result.json_line(&[("setup_s", "s"), ("solve_ms_p50", "ms")]),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"setup_s\": \
             {\"value\": 0.5, \"unit\": \"s\"}, \"solve_ms_p50\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }
}
