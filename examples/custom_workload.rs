//! Write your own workload against the `Vm` trait and measure it under
//! AVR: a moving-average filter over a sensor trace — the kind of
//! approximation-tolerant kernel AVR targets.
//!
//! The workload speaks the **bulk** `Vm` API through a declared **record
//! schema**: each logical record pairs the approximable raw sample with
//! the precise filtered result, and `Layout::instantiate` turns that
//! schema into concrete regions for whichever [`LayoutKind`] the run asks
//! for — SoA planes, an interleaved AoS, or hot/cold-partitioned groups —
//! with zero layout-specific code in the kernel. Each bulk call costs a
//! single dispatch into the simulator, which serves it through a
//! cacheline-coalesced fast path that is bit-identical — in values,
//! cycles and traffic — to issuing the equivalent word-at-a-time loop.
//!
//! Migration note for `Vm` implementors: every bulk method has a default
//! that decomposes into `read_u32`/`write_u32`, so a `Vm` written against
//! the original five-method interface (or any workload still issuing
//! per-word accesses) keeps compiling and behaves identically. Wrap a VM
//! in `avr::arch::WordAtATime` to force those defaults when you want to
//! check a bulk fast path against the per-word reference.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use avr::arch::{DesignKind, FieldSpec, Layout, LayoutKind, RecordSchema, SystemConfig, Vm};
use avr::workloads::{run_on_design, run_on_design_in, GoldenKey, Workload};

/// A 64-tap moving average over a noisy-but-correlated "sensor" signal.
struct MovingAverage {
    samples: usize,
}

const TAPS: usize = 64;
const CHUNK: usize = 4096;

/// Field indices into [`MovingAverage::schema`].
const RAW: usize = 0;
const FILTERED: usize = 1;

impl MovingAverage {
    /// One record per sample: the raw trace tolerates approximation; the
    /// filtered output is what the application actually consumes, so it
    /// stays precise. Under the default *conservative* policy an AoS
    /// instantiation prices the whole interleaved record precise (the
    /// granularity gap — see the per-layout table this example prints).
    fn schema() -> RecordSchema {
        RecordSchema::new(
            "sample",
            vec![FieldSpec::approx_f32("raw"), FieldSpec::precise_f32("filtered")],
        )
    }
}

impl Workload for MovingAverage {
    fn name(&self) -> &'static str {
        "moving_average"
    }

    // Optional: `run_in` below is a pure function of `samples`, so the exact
    // golden run this design comparison needs twice (once per
    // `run_on_design` call) can be memoized — computed once, shared across
    // designs/backends, bit-identical to recomputing. Omit this (the
    // default returns `None`) and every call recomputes, which is always
    // correct.
    fn golden_key(&self) -> Option<GoldenKey> {
        Some(GoldenKey::new("moving_average", &[self.samples as u64], 0))
    }

    // Optional: a coarse relative cost (element touches) so pooled sweeps
    // can claim heavy jobs first; only the ordering across jobs matters.
    fn cost_hint(&self) -> u64 {
        (self.samples * 3) as u64
    }

    // Optional: declare which layouts the kernel supports. Because every
    // access below goes through the `LayoutMap`, all three come for free.
    fn layouts(&self) -> &'static [LayoutKind] {
        &[LayoutKind::Soa, LayoutKind::Aos, LayoutKind::Partitioned]
    }

    // Required: the kernel itself, under any layout listed above. The
    // provided `run` calls it in SoA.
    fn run_in(&self, vm: &mut dyn Vm, layout: LayoutKind) -> Vec<f64> {
        let n = self.samples;
        // The schema placed by the requested layout: field addressing from
        // here on is logical (field index, record index).
        let map = Layout::new(Self::schema(), layout).instantiate(vm, n);

        // A drifting baseline with sensor jitter, streamed to memory in
        // chunked bulk stores.
        let mut buf = vec![0f32; CHUNK];
        for start in (0..n).step_by(CHUNK) {
            let len = CHUNK.min(n - start);
            for (o, v) in buf[..len].iter_mut().enumerate() {
                let i = start + o;
                let t = i as f32 * 0.001;
                *v = 48.0 + 6.0 * t.sin() + 0.02 * ((i * 2654435761) % 97) as f32;
            }
            vm.compute(8 * len as u64);
            map.write_f32s(vm, RAW, start, &buf[..len]);
        }

        // 64-tap running mean: the window's leading edge and trailing edge
        // are two chunked read streams over the same trace.
        let mut lead = vec![0f32; CHUNK];
        let mut trail = vec![0f32; CHUNK];
        let mut out_buf = vec![0f32; CHUNK];
        let mut acc = 0f64;
        for start in (0..n).step_by(CHUNK) {
            let len = CHUNK.min(n - start);
            map.read_f32s(vm, RAW, start, &mut lead[..len]);
            // Trailing reads exist only once the window has filled.
            let t0 = start.saturating_sub(TAPS);
            let t_len = if start >= TAPS { len } else { (start + len).saturating_sub(TAPS) };
            if t_len > 0 {
                map.read_f32s(vm, RAW, t0, &mut trail[..t_len]);
            }
            for o in 0..len {
                let i = start + o;
                acc += lead[o] as f64;
                if i >= TAPS {
                    // trail holds samples starting at max(start-TAPS, 0).
                    let off = i - TAPS - t0;
                    acc -= trail[off] as f64;
                }
                let denom = TAPS.min(i + 1) as f64;
                out_buf[o] = (acc / denom) as f32;
            }
            vm.compute(6 * len as u64);
            map.write_f32s(vm, FILTERED, start, &out_buf[..len]);
        }

        // Output: a decimated view of the filtered signal — one strided
        // bulk load, whatever the layout's stride happens to be.
        let mut sample = vec![0f32; n.div_ceil(16)];
        map.read_f32s_every(vm, FILTERED, 0, 16, &mut sample);
        sample.iter().map(|&v| v as f64).collect()
    }
}

fn main() {
    let w = MovingAverage { samples: 200_000 };
    let cfg = SystemConfig::tiny();

    let base = run_on_design(&w, &cfg, DesignKind::Baseline);
    let avr = run_on_design(&w, &cfg, DesignKind::Avr);

    println!("moving-average filter over a 200k-sample sensor trace\n");
    println!("              baseline        AVR");
    println!("cycles     {:>11}{:>11}", base.cycles, avr.cycles);
    println!(
        "traffic    {:>10.1}MB{:>9.1}MB",
        base.counters.traffic.total() as f64 / 1e6,
        avr.counters.traffic.total() as f64 / 1e6
    );
    println!("exec norm  {:>11.3}{:>11.3}", 1.0, avr.exec_time_norm(&base));
    println!("ratio      {:>11.1}{:>10.1}x", 1.0, avr.compression_ratio);
    println!("out error  {:>10.3}%{:>10.3}%", 0.0, avr.output_error * 100.0);

    // The layout axis: the same kernel re-placed per layout. Conservative
    // AoS interleaves the precise result into every block, so the region
    // is precise end to end (nothing to compress) — the granularity gap.
    println!("\nlayout        ratio   compressible   out error");
    for layout in LayoutKind::ALL {
        let m = run_on_design_in(&w, &cfg, DesignKind::Avr, layout);
        let frac = m.compressible_blocks as f64 / (m.approx_blocks as f64).max(1.0);
        println!(
            "{:<12}{:>6.1}x{:>13.1}%{:>11.3}%",
            layout.label(),
            m.compression_ratio,
            100.0 * frac,
            m.output_error * 100.0
        );
    }
    println!(
        "\nThe filter's *output* error is far below the per-value threshold:\n\
         averaging washes the reconstruction error out — exactly the class\n\
         of application the paper targets."
    );
}
