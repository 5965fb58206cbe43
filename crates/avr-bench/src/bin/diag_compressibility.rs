use avr_compress::{compress, CompressFailure, Thresholds};
use avr_core::ExactVm;
use avr_types::knobs::knobs;
use avr_workloads::all_benchmarks;

fn main() {
    let th = Thresholds::paper_default();
    for w in all_benchmarks(knobs().scale) {
        let mut vm = ExactVm::new();
        let _ = w.run(&mut vm);
        let blocks: Vec<_> = vm.space.approx_blocks().collect();
        let mut sizes = [0usize; 18]; // index 17 = avg-error fail
        for (b, dt) in &blocks {
            let data = vm.mem.read_block(*b);
            match compress(&data, *dt, &th, 8) {
                Ok(o) => sizes[o.compressed.size_lines()] += 1,
                Err(CompressFailure::TooManyOutliers { .. }) => sizes[16] += 1,
                Err(CompressFailure::AvgErrorTooHigh { .. }) => sizes[17] += 1,
            }
        }
        let total = blocks.len();
        print!("{:<10} n={:<6}", w.name(), total);
        for (i, &c) in sizes.iter().enumerate() {
            if c > 0 {
                let label = match i {
                    16 => "outl!".to_string(),
                    17 => "avg!".to_string(),
                    _ => format!("{i}L"),
                };
                print!(" {}:{:.0}%", label, 100.0 * c as f64 / total as f64);
            }
        }
        println!();
    }
}
