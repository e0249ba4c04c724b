//! The untraced benchmark binary: end-to-end metrics, system allocator.

fn main() -> std::process::ExitCode {
    clientmap_benchmark::cli::main(false)
}
