//! Shard worker process. Both modes serve the same persistent framed
//! session (`xai::transport::serve_connection`): each `ShardDescriptor`
//! frame is answered with a canonical `ShardResult` frame or a shard
//! error envelope, until the peer closes.
//!
//! - **stdio mode** (no arguments): one session on stdin and stdout,
//!   exiting 0 when stdin closes. Spawned and kept by the process pool
//!   (`ProcessPoolBackend`); see DESIGN.md §11.
//! - **daemon mode** (`--listen addr:port`): one session per accepted
//!   TCP connection, many connections at once, until killed. Use port
//!   `0` for an ephemeral port; the bound address is announced as
//!   `listening on {addr}` on stdout. See DESIGN.md §13.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.as_slice() {
        [] => xai::shard::run_worker(),
        [flag, addr] if flag == "--listen" => xai::transport::run_daemon(addr),
        _ => {
            eprintln!("usage: xai-shard-worker [--listen addr:port]");
            2
        }
    };
    std::process::exit(code);
}
