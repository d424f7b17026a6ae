//! Sweep-engine scaling and hot-path kernel check.
//!
//! One claim is validated on the standard 8-point grid
//! ([`fasttrack_bench::snapshot::hotpath_grid`]): the grid run serially
//! and on 8 worker threads must produce byte-identical CSVs, and on a
//! machine with enough cores the parallel run must be at least 3x
//! faster.
//!
//! The measured times are written as a versioned
//! [`fasttrack_bench::snapshot::BenchSnapshot`] to `BENCH_hotpath.json`
//! (override the path with `FASTTRACK_BENCH_JSON`, set it empty to
//! skip). The snapshot is the unit of the tracked bench trajectory:
//! `fasttrack bench gate` compares a fresh one against the checked-in
//! baseline and fails CI on a >10% hot-path regression.

use fasttrack_bench::runner::{quick_mode, sweep_csv};
use fasttrack_bench::snapshot::{hotpath_grid, measure_hotpath, snapshot_from, HOTPATH_THREADS};

/// Mean serial wall-clock of this grid on the reference machine before
/// the routing kernel landed (route preferences recomputed per decision,
/// AoS packet registers). Kept for the improvement printout; the
/// versioned snapshot itself tracks absolute times plus normalized
/// packets/sec.
const PRE_KERNEL_SERIAL_SECS: f64 = 1.24;

fn main() {
    let packets = if quick_mode() { 200 } else { 2000 };
    let grid = hotpath_grid(packets);
    assert_eq!(grid.len(), 8, "scaling grid should have 8 points");

    let m = measure_hotpath(&grid);

    // Re-run serial/parallel just for the byte-identity check (the
    // measurement pass discards rows to keep timing clean).
    let serial = grid.run(1);
    let parallel = grid.run(HOTPATH_THREADS as usize);
    assert_eq!(
        sweep_csv(&serial),
        sweep_csv(&parallel),
        "parallel sweep output must be byte-identical to the serial run"
    );

    let speedup = m.serial_secs / m.parallel_secs.max(1e-9);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "sweep_scaling: {} points, serial {:.3}s, {} threads {:.3}s, \
         speedup {:.2}x on {} core(s)",
        grid.len(),
        m.serial_secs,
        HOTPATH_THREADS,
        m.parallel_secs,
        speedup,
        cores
    );
    println!(
        "hotpath: serial {:.3}s vs pre-kernel baseline {:.3}s ({:.2}x)",
        m.serial_secs,
        PRE_KERNEL_SERIAL_SECS,
        PRE_KERNEL_SERIAL_SECS / m.serial_secs.max(1e-9),
    );

    if cores >= 4 {
        assert!(
            speedup >= 3.0,
            "expected >=3x speedup on {cores} cores, measured {speedup:.2}x"
        );
    } else {
        println!("fewer than 4 cores available; skipping the >=3x speedup assertion");
    }

    // Record the versioned snapshot (skipped in quick mode: the tiny
    // workload is all setup, not hot path, so its ratios would be noise
    // — and its grid fingerprint differs from the full grid's anyway).
    let json_path = std::env::var("FASTTRACK_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json").to_string()
    });
    if !quick_mode() && !json_path.is_empty() {
        let snap = snapshot_from(&grid, &m);
        println!(
            "snapshot: commit {}, {:.0} packets/sec normalized",
            snap.commit, snap.packets_per_sec
        );
        if let Err(e) = snap.save(&json_path) {
            eprintln!("warning: could not write {json_path}: {e}");
        } else {
            println!("wrote {json_path}");
        }
    }
    println!("shape check: CSV equality holds at any thread count; speedup tracks core count.");
}
