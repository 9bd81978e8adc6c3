//! Untraced benchmark run on the system allocator: end-to-end metrics and
//! layer counts for one workload at one seed.

fn main() {
    std::process::exit(lfs_perfbench::cli_main(false));
}
