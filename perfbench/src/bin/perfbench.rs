//! Untraced run: the end-to-end metrics.

fn main() {
    std::process::exit(perfbench::main_with(None));
}
