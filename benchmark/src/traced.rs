//! `morpheus-benchmark-traced --workload <name> --seed <n>`: the traced pass,
//! started by `morpheus-benchmark --trace 1`. The only binary with the
//! counting allocator, so the timed runs never pay for it.

use morpheus_benchmark::trace::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(morpheus_benchmark::cli::traced_main(&args, &ALLOC));
}
