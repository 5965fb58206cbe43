//! Standalone sweep-server daemon.
//!
//! ```text
//! sweep_server [--addr HOST:PORT]
//! ```
//!
//! Binds (default `127.0.0.1:0`, an OS-assigned port), prints the bound
//! address on stdout as `listening on <addr>`, then serves until a client
//! sends `drain` or `shutdown`. Pool width comes from the `AVR_THREADS`
//! knob (default: host parallelism), like every default-width `SimPool`.

use avr_server::SweepServer;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut addr = "127.0.0.1:0".to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => {
                    eprintln!("--addr needs a HOST:PORT value");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: sweep_server [--addr HOST:PORT]");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    let server = match SweepServer::bind(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    eprintln!("pool width: {} worker(s)", server.threads());
    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        std::process::exit(1);
    }
}
