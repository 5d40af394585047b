//! The acceptor survives accept errors. With every file descriptor of the
//! process taken, `accept` fails with `EMFILE`; once descriptors free up,
//! the server must answer again, and the errors must be counted.
//!
//! This file is its own test binary, so exhausting the process's
//! descriptors disturbs no other test. The descriptor limit is lowered
//! first to keep the exhaustion cheap.
#![cfg(target_os = "linux")]

use std::fs::File;
use std::net::TcpStream;
use std::os::raw::{c_int, c_ulong};
use std::time::Duration;
use streampim::pim_serve::{call, ServeConfig, Server};

#[repr(C)]
struct RLimit {
    cur: c_ulong,
    max: c_ulong,
}

extern "C" {
    fn getrlimit(resource: c_int, limit: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, limit: *const RLimit) -> c_int;
}

const RLIMIT_NOFILE: c_int = 7;
const EMFILE: i32 = 24;
/// Soft descriptor limit for this process: plenty for the server and the
/// test harness, few enough to exhaust in a moment.
const FD_LIMIT: c_ulong = 256;

fn lower_fd_limit() {
    let mut limit = RLimit { cur: 0, max: 0 };
    // SAFETY: both calls get a valid pointer to a properly laid out
    // `struct rlimit` (two `rlim_t`, which is `unsigned long` on Linux).
    unsafe {
        assert_eq!(getrlimit(RLIMIT_NOFILE, &mut limit), 0, "getrlimit");
        limit.cur = limit.cur.min(FD_LIMIT);
        assert_eq!(setrlimit(RLIMIT_NOFILE, &limit), 0, "setrlimit");
    }
}

/// Opens descriptors until the process has none left.
fn exhaust_descriptors() -> Vec<File> {
    let mut held = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(file) => held.push(file),
            Err(error) if error.raw_os_error() == Some(EMFILE) => return held,
            Err(error) => panic!("unexpected open error: {error}"),
        }
    }
}

#[test]
fn acceptor_keeps_serving_after_running_out_of_descriptors() {
    lower_fd_limit();
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let (status, _, _) = call(&addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(status, 200);

    let mut held = exhaust_descriptors();
    // Free one descriptor for a client socket. The acceptor, blocked in
    // `accept`, already holds the descriptor it reserved before waiting;
    // it accepts the connection with it and hands it to a worker, which
    // keeps it while waiting for a request that never comes. Every later
    // `accept` finds no descriptor left and fails with EMFILE until the
    // held descriptors are released.
    held.pop();
    let idle = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    drop(held);

    let (status, _, body) = call(&addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    drop(idle);

    let (_, _, prom) = call(&addr, "GET", "/metrics.prom", None).unwrap();
    let errors: u64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("pim_serve_accept_errors_total "))
        .expect("accept errors are counted")
        .trim()
        .parse()
        .unwrap();
    assert!(errors >= 1, "{errors} accept errors counted");
    let (_, _, events) = call(&addr, "GET", "/v1/events", None).unwrap();
    assert!(
        events
            .lines()
            .any(|l| l.contains("\"accept\"") && l.contains("accept failed")),
        "a Warn event reports the failure: {events}"
    );
    server.shutdown();
}
