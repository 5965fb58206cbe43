//! The ten approximation-tolerant benchmarks, ported as Rust programs
//! that run against any [`avr_core::Vm`] — the timed systems or the exact
//! golden executor. The first seven are the paper's Table 2 suite; `sobel`
//! and `fft` extend it with two further AxBench kernels so configuration
//! sweeps cover more data-layout classes (cf. arXiv:2004.01637), and
//! `particles` adds a genuinely mixed-criticality record (approximable
//! positions/velocities next to a precise cell index) for the layout axis.
//!
//! | name      | source                      | this port                                   |
//! |-----------|-----------------------------|---------------------------------------------|
//! | heat      | Quinn, MPI/OpenMP book      | 2-D Jacobi heat diffusion                   |
//! | lattice   | Ansumali'03 (+car input)    | D2Q9 lattice-Boltzmann over a car silhouette|
//! | lbm       | SPEC CPU2006 470.lbm        | D3Q19 lattice-Boltzmann over a sphere       |
//! | orbit     | FLASH two-particle orbit    | 3-D potential grid + leapfrog two-body      |
//! | kmeans    | 1-D k-means (+survey input) | 1-D k-means over fractal terrain elevations |
//! | bscholes  | AxBench blackscholes        | Black-Scholes option pricing                |
//! | wrf       | SPEC CPU2006 481.wrf        | multi-field 3-D weather stencil             |
//! | sobel     | AxBench sobel (extension)   | 3×3 Sobel edge filter over a textured image |
//! | fft       | AxBench fft (extension)     | radix-2 FFT of a full-band chirp            |
//! | particles | cell-list MD step (layout)  | 2-D particle step with precise cell indices |
//!
//! Each workload annotates the data structures the paper lists as
//! approximable, tuned so the approximable fraction of the footprint
//! matches Table 4's back-computed fractions. Every
//! workload declares its record schema through [`avr_core::RecordSchema`]
//! and runs in any [`avr_core::LayoutKind`] it lists in
//! [`runner::Workload::layouts`] — same math, different placement.

pub mod bscholes;
pub mod fft;
pub mod golden;
pub mod heat;
pub mod kmeans;
pub mod lattice;
pub mod lbm;
pub mod orbit;
pub mod particles;
pub mod runner;
pub mod sobel;
pub mod terrain;
pub mod wrf;

pub use golden::{golden_run, GoldenKey};
pub use runner::{
    all_benchmarks, mean_relative_error, metrics_digest, run_grid, run_grid_layouts, run_on_design,
    run_on_design_in, run_suite_on_pool, workload_by_name, workload_names, BenchScale, GridRun,
    Workload,
};
