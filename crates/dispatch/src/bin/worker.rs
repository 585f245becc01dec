//! `mcdbr-worker`: the worker-process binary behind
//! [`mcdbr_dispatch::ProcessBackend`].
//!
//! Speaks the dispatch wire protocol over stdin/stdout — handshake, then
//! `Plan` / `Task` frames in, columnar partial-result frames out — and
//! exits cleanly on a `Shutdown` frame or when the coordinator closes the
//! pipe.  Protocol failures exit non-zero with the reason on stderr; the
//! coordinator replaces the worker and runs its task itself.
//!
//! A `ProcessBackend` armed with a fault plan
//! (`ProcessBackend::with_fault_spec`) writes it into `MCDBR_FAULTS` (see
//! `mcdbr-faults`) in the environment of the workers it targets, and the
//! worker injects the plan's stall / slow / drop / partial / delay faults
//! into its own task replies.

fn main() {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut output = stdout.lock();
    let faults = mcdbr_faults::env_injector();
    if let Err(e) =
        mcdbr_dispatch::worker::run_worker_with_faults(&mut input, &mut output, faults.as_deref())
    {
        eprintln!("mcdbr-worker: {e}");
        std::process::exit(1);
    }
}
