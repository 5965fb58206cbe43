//! Wire protocol of the sweep server: line-delimited JSON, one request or
//! reply per line.
//!
//! Requests are objects with a `"cmd"` key:
//!
//! ```json
//! {"cmd":"submit","tag":"pr9","cells":[{"workload":"heat","design":"AVR"}]}
//! {"cmd":"status"}
//! {"cmd":"results","job":1,"from":0}
//! {"cmd":"cancel","job":1}
//! {"cmd":"drain"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Replies are objects with `"ok"` (direct responses) or `"event"`
//! (asynchronous per-cell results and job completions). Every event carries
//! the job id, so a client that reconnects can resume a stream with
//! `results`. The result encoding is total: every `RunMetrics` field rides
//! the wire, integers as exact decimals (see [`crate::json`]).

use crate::json::Json;
use avr_sim::{Counters, EnergyBreakdown, RunMetrics};
use avr_types::{
    check_thresholds, BackendKind, BenchScale, CellSpec, ConfigOverrides, DesignKind, LayoutKind,
};

/// One parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Enqueue a batch of cells; the reply acks with the job id, then the
    /// submitting connection streams the job's events.
    Submit { tag: Option<String>, cells: Vec<CellSpec> },
    /// Queue depth, in-flight job, worker utilization, golden-cache stats,
    /// and the server process's resolved `AVR_*` knobs.
    Status,
    /// (Re-)subscribe to a job's event stream, replaying finished cells
    /// with index >= `from` first.
    Results { job: u64, from: usize },
    /// Cancel a queued or running job; finished cells keep their results.
    Cancel { job: u64 },
    /// Stop accepting submissions, finish the queue, then exit.
    Drain,
    /// Cancel everything in flight and exit as soon as possible.
    Shutdown,
}

impl Request {
    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line).map_err(|e| format!("bad json: {e}"))?;
        let cmd =
            doc.get("cmd").and_then(Json::as_str).ok_or_else(|| "missing \"cmd\"".to_string())?;
        match cmd {
            "submit" => {
                let tag = doc.get("tag").and_then(Json::as_str).map(str::to_string);
                let cells = doc
                    .get("cells")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| "submit needs a \"cells\" array".to_string())?;
                if cells.is_empty() {
                    return Err("submit needs at least one cell".to_string());
                }
                let cells = cells
                    .iter()
                    .enumerate()
                    .map(|(i, c)| cell_from_json(c).map_err(|e| format!("cell {i}: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Submit { tag, cells })
            }
            "status" => Ok(Request::Status),
            "results" => Ok(Request::Results {
                job: req_job(&doc)?,
                from: doc
                    .get("from")
                    .map(|v| v.as_u64().ok_or_else(|| "bad \"from\"".to_string()))
                    .transpose()?
                    .unwrap_or(0) as usize,
            }),
            "cancel" => Ok(Request::Cancel { job: req_job(&doc)? }),
            "drain" => Ok(Request::Drain),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown cmd {other:?}")),
        }
    }

    /// Encode this request as one wire line (client side).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Submit { tag, cells } => {
                let mut fields = vec![("cmd".to_string(), Json::from("submit"))];
                if let Some(tag) = tag {
                    fields.push(("tag".to_string(), Json::from(tag.as_str())));
                }
                fields.push((
                    "cells".to_string(),
                    Json::Arr(cells.iter().map(cell_to_json).collect()),
                ));
                Json::Obj(fields)
            }
            Request::Status => Json::obj([("cmd", Json::from("status"))]),
            Request::Results { job, from } => Json::obj([
                ("cmd", Json::from("results")),
                ("job", Json::from(*job)),
                ("from", Json::from(*from)),
            ]),
            Request::Cancel { job } => {
                Json::obj([("cmd", Json::from("cancel")), ("job", Json::from(*job))])
            }
            Request::Drain => Json::obj([("cmd", Json::from("drain"))]),
            Request::Shutdown => Json::obj([("cmd", Json::from("shutdown"))]),
        }
    }
}

fn req_job(doc: &Json) -> Result<u64, String> {
    doc.get("job").and_then(Json::as_u64).ok_or_else(|| "missing \"job\"".to_string())
}

/// Encode a cell spec; defaulted fields are omitted so the encoding of
/// `CellSpec::new(w)` is just `{"workload":w}`.
pub fn cell_to_json(cell: &CellSpec) -> Json {
    let mut fields = vec![("workload".to_string(), Json::from(cell.workload.as_str()))];
    let mut put = |key: &str, value: Json| fields.push((key.to_string(), value));
    if cell.scale != BenchScale::Tiny {
        put("scale", Json::from(cell.scale.label()));
    }
    if cell.design != DesignKind::Avr {
        put("design", Json::from(cell.design.label()));
    }
    if cell.layout != LayoutKind::Soa {
        put("layout", Json::from(cell.layout.label()));
    }
    if let Some(backend) = cell.backend {
        put("backend", Json::from(backend.label()));
    }
    if let Some(seed) = cell.seed {
        put("seed", Json::from(seed));
    }
    let o = &cell.overrides;
    if let Some(v) = o.t1 {
        put("t1", Json::from(v));
    }
    if let Some(v) = o.t2 {
        put("t2", Json::from(v));
    }
    if let Some(v) = o.retention_fail_per_bit {
        put("retention_fail_per_bit", Json::from(v));
    }
    if let Some(v) = o.refresh_multiplier {
        put("refresh_multiplier", Json::from(v));
    }
    if let Some(v) = o.mram_p01 {
        put("mram_p01", Json::from(v));
    }
    if let Some(v) = o.mram_p10 {
        put("mram_p10", Json::from(v));
    }
    if let Some(v) = o.retry_budget {
        put("retry_budget", Json::from(v));
    }
    Json::Obj(fields)
}

/// Decode a cell spec, rejecting unknown labels (not unknown keys — extra
/// keys are ignored so the wire format can grow) and error thresholds the
/// codec would refuse.
pub fn cell_from_json(doc: &Json) -> Result<CellSpec, String> {
    let workload = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing \"workload\"".to_string())?;
    let mut cell = CellSpec::new(workload);
    if let Some(v) = doc.get("scale") {
        let label = v.as_str().ok_or_else(|| "bad \"scale\"".to_string())?;
        cell.scale =
            BenchScale::from_label(label).ok_or_else(|| format!("unknown scale {label:?}"))?;
    }
    if let Some(v) = doc.get("design") {
        let label = v.as_str().ok_or_else(|| "bad \"design\"".to_string())?;
        cell.design =
            DesignKind::from_label(label).ok_or_else(|| format!("unknown design {label:?}"))?;
    }
    if let Some(v) = doc.get("layout") {
        let label = v.as_str().ok_or_else(|| "bad \"layout\"".to_string())?;
        cell.layout =
            LayoutKind::from_label(label).ok_or_else(|| format!("unknown layout {label:?}"))?;
    }
    if let Some(v) = doc.get("backend") {
        let label = v.as_str().ok_or_else(|| "bad \"backend\"".to_string())?;
        cell.backend = Some(
            BackendKind::from_label(label).ok_or_else(|| format!("unknown backend {label:?}"))?,
        );
    }
    if let Some(v) = doc.get("seed") {
        cell.seed = Some(v.as_u64().ok_or_else(|| "bad \"seed\"".to_string())?);
    }
    let f = |key: &str| -> Result<Option<f64>, String> {
        doc.get(key).map(|v| v.as_f64().ok_or_else(|| format!("bad {key:?}"))).transpose()
    };
    let u = |key: &str| -> Result<Option<u64>, String> {
        doc.get(key).map(|v| v.as_u64().ok_or_else(|| format!("bad {key:?}"))).transpose()
    };
    cell.overrides = ConfigOverrides {
        t1: f("t1")?,
        t2: f("t2")?,
        retention_fail_per_bit: f("retention_fail_per_bit")?,
        refresh_multiplier: u("refresh_multiplier")?,
        mram_p01: f("mram_p01")?,
        mram_p10: f("mram_p10")?,
        retry_budget: u("retry_budget")?,
    };
    // The codec asserts the same check when the cell's system is built; an
    // out-of-range threshold must fail here, at submit, instead.
    let avr = cell.config(&crate::server::base_config(cell.scale)).avr;
    check_thresholds(avr.t1, avr.t2).map_err(|e| e.to_string())?;
    Ok(cell)
}

/// Serialize every field of a [`RunMetrics`] — nothing summarized away, so
/// a wire result is as complete as the in-process struct.
pub fn metrics_to_json(m: &RunMetrics) -> Json {
    Json::obj([
        ("design", Json::from(m.design.as_str())),
        ("benchmark", Json::from(m.benchmark.as_str())),
        ("cycles", Json::from(m.cycles)),
        ("exec_seconds", Json::from(m.exec_seconds)),
        ("ipc", Json::from(m.ipc)),
        ("output_error", Json::from(m.output_error)),
        ("compression_ratio", Json::from(m.compression_ratio)),
        ("approx_blocks", Json::from(m.approx_blocks)),
        ("compressible_blocks", Json::from(m.compressible_blocks)),
        ("footprint_fraction", Json::from(m.footprint_fraction)),
        ("llc_cms_fraction", Json::from(m.llc_cms_fraction)),
        ("counters", counters_to_json(&m.counters)),
        ("energy", energy_to_json(&m.energy)),
    ])
}

fn counters_to_json(c: &Counters) -> Json {
    Json::obj([
        ("instructions", Json::from(c.instructions)),
        ("loads", Json::from(c.loads)),
        ("stores", Json::from(c.stores)),
        ("l1_hits", Json::from(c.l1_hits)),
        ("l2_hits", Json::from(c.l2_hits)),
        ("llc_requests_total", Json::from(c.llc_requests_total)),
        ("llc_misses_total", Json::from(c.llc_misses_total)),
        (
            "approx_requests",
            Json::obj([
                ("miss", Json::from(c.approx_requests.miss)),
                ("uncompressed_hit", Json::from(c.approx_requests.uncompressed_hit)),
                ("dbuf_hit", Json::from(c.approx_requests.dbuf_hit)),
                ("compressed_hit", Json::from(c.approx_requests.compressed_hit)),
            ]),
        ),
        (
            "evictions",
            Json::obj([
                ("recompress", Json::from(c.evictions.recompress)),
                ("lazy_writeback", Json::from(c.evictions.lazy_writeback)),
                ("fetch_recompress", Json::from(c.evictions.fetch_recompress)),
                ("uncompressed_writeback", Json::from(c.evictions.uncompressed_writeback)),
            ]),
        ),
        (
            "traffic",
            Json::obj([
                ("approx_read_bytes", Json::from(c.traffic.approx_read_bytes)),
                ("approx_write_bytes", Json::from(c.traffic.approx_write_bytes)),
                ("nonapprox_read_bytes", Json::from(c.traffic.nonapprox_read_bytes)),
                ("nonapprox_write_bytes", Json::from(c.traffic.nonapprox_write_bytes)),
                ("metadata_bytes", Json::from(c.traffic.metadata_bytes)),
            ]),
        ),
        ("amat_cycles_sum", Json::from(c.amat_cycles_sum)),
        ("amat_count", Json::from(c.amat_count)),
        ("miss_lat_sum", Json::from(c.miss_lat_sum)),
        ("miss_lat_count", Json::from(c.miss_lat_count)),
        ("miss_lat_max", Json::from(c.miss_lat_max)),
        ("compressed_hit_cycles_sum", Json::from(c.compressed_hit_cycles_sum)),
        ("blocks_compressed", Json::from(c.blocks_compressed)),
        ("blocks_decompressed", Json::from(c.blocks_decompressed)),
        ("compression_failures", Json::from(c.compression_failures)),
        ("compression_skips", Json::from(c.compression_skips)),
        ("block_reuse_sum", Json::from(c.block_reuse_sum)),
        ("block_reuse_count", Json::from(c.block_reuse_count)),
        (
            "faults",
            Json::obj([
                ("injected_bit_flips", Json::from(c.faults.injected_bit_flips)),
                ("faulted_lines", Json::from(c.faults.faulted_lines)),
                ("retries", Json::from(c.faults.retries)),
                ("degraded_lines", Json::from(c.faults.degraded_lines)),
                ("sanitized_values", Json::from(c.faults.sanitized_values)),
                ("ecc_scrubs", Json::from(c.faults.ecc_scrubs)),
            ]),
        ),
        (
            "memo",
            Json::obj([
                ("in_probes", Json::from(c.memo.in_probes)),
                ("in_hits", Json::from(c.memo.in_hits)),
                ("in_inserts", Json::from(c.memo.in_inserts)),
                ("in_served", Json::from(c.memo.in_served)),
                ("out_windows", Json::from(c.memo.out_windows)),
                ("out_elided", Json::from(c.memo.out_elided)),
                ("out_commits", Json::from(c.memo.out_commits)),
            ]),
        ),
    ])
}

fn energy_to_json(e: &EnergyBreakdown) -> Json {
    Json::obj([
        ("core", Json::from(e.core)),
        ("l1l2", Json::from(e.l1l2)),
        ("llc", Json::from(e.llc)),
        ("dram", Json::from(e.dram)),
        ("compressor", Json::from(e.compressor)),
    ])
}

/// One finished cell, rendered as a wire line. The `cell` index is the
/// position in the submitted batch, so a client can reassemble the grid in
/// submission order regardless of completion order.
pub fn result_event(job: u64, cell: usize, spec: &CellSpec, metrics: &RunMetrics) -> String {
    Json::obj([
        ("event", Json::from("result")),
        ("job", Json::from(job)),
        ("cell", Json::from(cell)),
        ("spec", cell_to_json(spec)),
        ("metrics", metrics_to_json(metrics)),
    ])
    .render()
}

/// Terminal event of a job: all cells accounted for (completed + cancelled
/// = batch size).
pub fn job_done_event(job: u64, completed: usize, cancelled: usize) -> String {
    Json::obj([
        ("event", Json::from("job_done")),
        ("job", Json::from(job)),
        ("completed", Json::from(completed)),
        ("cancelled", Json::from(cancelled)),
    ])
    .render()
}

/// An error reply; the connection stays usable afterwards.
pub fn error_response(message: &str) -> String {
    Json::obj([("ok", Json::from(false)), ("error", Json::from(message))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_through_the_wire() {
        let mut cell = CellSpec::new("heat");
        cell.design = DesignKind::Baseline;
        cell.layout = LayoutKind::Aos;
        cell.backend = Some(BackendKind::RelaxedDram);
        cell.seed = Some(7);
        cell.overrides.refresh_multiplier = Some(8);
        cell.overrides.t1 = Some(0.125);
        let req = Request::Submit {
            tag: Some("sweep".to_string()),
            cells: vec![CellSpec::new("fft"), cell],
        };
        let line = req.to_json().render();
        assert_eq!(Request::parse(&line).unwrap(), req);
    }

    #[test]
    fn default_cell_encodes_minimally() {
        let line = cell_to_json(&CellSpec::new("lbm")).render();
        assert_eq!(line, "{\"workload\":\"lbm\"}");
    }

    #[test]
    fn control_requests_round_trip() {
        for req in [
            Request::Status,
            Request::Results { job: 3, from: 17 },
            Request::Cancel { job: 9 },
            Request::Drain,
            Request::Shutdown,
        ] {
            let line = req.to_json().render();
            assert_eq!(Request::parse(&line).unwrap(), req);
        }
    }

    #[test]
    fn bad_requests_name_the_problem() {
        let err = Request::parse(
            "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\",\"design\":\"warp\"}]}",
        )
        .unwrap_err();
        assert!(err.contains("cell 0") && err.contains("warp"), "{err}");
        assert!(Request::parse("{\"cmd\":\"results\"}").unwrap_err().contains("job"));
        assert!(Request::parse("not json").unwrap_err().contains("bad json"));
        assert!(Request::parse("{\"cmd\":\"fly\"}").unwrap_err().contains("fly"));
        assert!(Request::parse("{\"cmd\":\"submit\",\"cells\":[]}").is_err());
        for (cell, field, range) in [
            ("{\"workload\":\"heat\",\"t1\":-1}", "t1", "(0, 1)"),
            ("{\"workload\":\"heat\",\"t1\":1}", "t1", "(0, 1)"),
            ("{\"workload\":\"heat\",\"t2\":-0.5}", "t2", "> 0"),
            ("{\"workload\":\"heat\",\"scale\":\"bench\",\"t2\":0}", "t2", "> 0"),
        ] {
            let err =
                Request::parse(&format!("{{\"cmd\":\"submit\",\"cells\":[{cell}]}}")).unwrap_err();
            assert!(err.contains("cell 0") && err.contains(field) && err.contains(range), "{err}");
        }
    }

    #[test]
    fn metrics_serialization_is_total_and_exact() {
        let mut m = RunMetrics {
            design: "AVR".to_string(),
            benchmark: "heat".to_string(),
            cycles: u64::MAX,
            exec_seconds: 0.1,
            ..Default::default()
        };
        m.counters.instructions = 123;
        m.counters.faults.ecc_scrubs = 9;
        m.energy.dram = 1.0 / 3.0;
        let doc = metrics_to_json(&m);
        let text = doc.render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.render(), text, "wire text must be stable");
        assert_eq!(parsed.get("cycles").unwrap(), &Json::U64(u64::MAX));
        assert_eq!(parsed.get("counters").unwrap().get("instructions").unwrap(), &Json::U64(123));
        assert_eq!(
            parsed.get("counters").unwrap().get("faults").unwrap().get("ecc_scrubs"),
            Some(&Json::U64(9))
        );
        assert_eq!(parsed.get("energy").unwrap().get("dram").unwrap().as_f64(), Some(1.0 / 3.0));
    }
}
