fn main() -> std::process::ExitCode {
    atomio_benchmark::cli::main(std::env::args().skip(1).collect())
}
