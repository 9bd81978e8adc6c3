//! Traced benchmark run: the untraced run's metrics plus host time per
//! `submit_op`, per-second layer samples, span and sample files, and
//! allocation counts from the counting allocator.

#[global_allocator]
static ALLOC: lfs_perfbench::TracingAlloc = lfs_perfbench::TracingAlloc;

fn main() {
    std::process::exit(lfs_perfbench::cli_main(true));
}
