//! The traced benchmark binary: per-layer metrics. Only this binary
//! counts allocations.

use clientmap_benchmark::alloc::CountingAllocator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() -> std::process::ExitCode {
    clientmap_benchmark::cli::main(true)
}
